module xfaas/benchmark

go 1.22

require xfaas v0.0.0

replace xfaas => ../
