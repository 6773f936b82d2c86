module nfcompass/benchmarks

go 1.22

require nfcompass v0.0.0

replace nfcompass => ../
