package main

// workload is one named input set the benchmark runs.
type workload struct {
	name, why string
	run       func(options) (*outcome, error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{"wire-churn", "closed-loop Client.Call churn over loopback TCP into Handler.Serve; wire, codec and handler dominate, route and audit are small", runWire},
	{"ctrl-campaign", "X14 load campaign at 2 trials: audit-heavy Server.Submit, fault-invalidated plan cache, busy admission ladder, no wire", runCampaign},
	{"rail-ring", "X13 rail ring traffic through netsim.RunSharded; bypasses ctrl, invariant and snapshot, so it is the control for controller changes", runRail},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
