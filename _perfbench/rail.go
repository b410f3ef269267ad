package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"lightpath/internal/experiments"
	"lightpath/internal/route"
	"lightpath/internal/topo"
	"lightpath/internal/unit"
)

// railGolden is the rail campaign's committed CSV at acceptance scale
// (640 servers per rail), relative to the checkout root.
const railGolden = "cmd/lightpath-sim/testdata/rail_golden.csv"

// railServers sizes the rail-ring workload: the acceptance geometry
// (16 rails, groups of 8, 8 cross-rail servers, 128 waves) with 48
// servers per rail instead of 640, so one solve takes about a second
// on two cores and a run holds many solves. Every ring group and
// cross-rail server is its own solver component, so each component's
// makespan equals the acceptance-scale golden's.
const railServers = 48

// railConfig is the workload's campaign configuration. Its inputs do
// not depend on the seed: the rail campaign is deterministic.
func railConfig() experiments.RailFabricConfig {
	cfg := experiments.DefaultRailFabricConfig()
	cfg.Servers = railServers
	return cfg
}

// runRail runs the rail-ring workload: the X13 rail campaign's ring
// traffic through netsim.RunSharded, solved repeatedly until the
// budget is spent. Each solve is one latency sample; an operation is
// a solved flow.
func runRail(opts options) (*outcome, error) {
	cfg := railConfig()
	setup, err := railSetup(cfg)
	if err != nil {
		return nil, err
	}
	golden, err := readRailGolden(filepath.Join(opts.root, railGolden))
	if err != nil {
		return nil, err
	}
	var (
		check error
		last  experiments.RailFabricResult
	)
	br, err := runBatches(opts, "experiments.RailFabric", func(int) (int64, error) {
		res, err := experiments.RailFabric(cfg)
		if err != nil {
			return 0, err
		}
		if check == nil {
			check = checkRail(cfg, res, golden)
		}
		last = res
		return int64(res.Flows), nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: br.ops, checkErr: check, values: br.endToEnd(setup)}
	if opts.trace {
		out.values = br.layers
		out.values["netsim.components"] = float64(last.Components)
	}
	return out, nil
}

// railSetup times building the workload's fabric and placing its ring
// and cross-rail flows on it — the set-up RailFabric performs before
// its solve — as the median of several builds.
func railSetup(cfg experiments.RailFabricConfig) (time.Duration, error) {
	return medianTime(15, 1, func() error {
		fabric, err := topo.NewRail(cfg.Rails, cfg.Servers, cfg.RailBW, cfg.BusBW)
		if err != nil {
			return err
		}
		a := route.NewLinkAllocator(fabric)
		for rail := 0; rail < cfg.Rails; rail++ {
			for g := 0; g < cfg.GroupsPerRail(); g++ {
				s0 := g * cfg.GroupSize
				for w := 0; w < cfg.Waves; w++ {
					for i := 0; i < cfg.GroupSize; i++ {
						a.Place(fabric.Endpoint(rail, s0+i), fabric.Endpoint(rail, s0+(i+1)%cfg.GroupSize),
							cfg.BaseBytes*unit.Bytes(w+1))
					}
				}
			}
		}
		for x := 0; x < cfg.XRailServers; x++ {
			s := cfg.RingServers() + x
			for w := 0; w < cfg.Waves; w++ {
				for rail := 0; rail < cfg.Rails; rail++ {
					a.Place(fabric.Endpoint(rail, s), fabric.Endpoint((rail+1)%cfg.Rails, s),
						cfg.BaseBytes*unit.Bytes(w+1))
				}
			}
		}
		if a.Len() != cfg.FlowCount() {
			return fmt.Errorf("placed %d flows, want %d", a.Len(), cfg.FlowCount())
		}
		return nil
	})
}

// railGoldenRows is the committed rail golden: the ring rows (one per
// rail) and the cross-rail row, as CSV records.
type railGoldenRows struct {
	ring  [][]string
	xrail []string
}

func readRailGolden(path string) (railGoldenRows, error) {
	f, err := os.Open(path)
	if err != nil {
		return railGoldenRows{}, err
	}
	defer func() { _ = f.Close() }()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return railGoldenRows{}, fmt.Errorf("%s: %w", path, err)
	}
	var g railGoldenRows
	for _, r := range recs[1:] {
		if r[0] == "xrail" {
			g.xrail = r
		} else {
			g.ring = append(g.ring, r)
		}
	}
	if len(g.ring) == 0 || g.xrail == nil {
		return railGoldenRows{}, fmt.Errorf("%s: missing ring or xrail rows", path)
	}
	return g, nil
}

// checkRail verifies a solve against the acceptance-scale golden. The
// cross-rail row does not depend on the server count and must match
// exactly; each rail's ring row must have the golden's makespan, and
// its group, flow and byte counts are the golden's per group times this
// scale's group count.
func checkRail(cfg experiments.RailFabricConfig, res experiments.RailFabricResult, golden railGoldenRows) error {
	if res.Flows != cfg.FlowCount() || res.Components != cfg.Components() {
		return fmt.Errorf("solved %d flows in %d components, want %d in %d",
			res.Flows, res.Components, cfg.FlowCount(), cfg.Components())
	}
	_, rows := res.CSV()
	if len(rows) != len(golden.ring)+1 {
		return fmt.Errorf("%d CSV rows, golden has %d", len(rows), len(golden.ring)+1)
	}
	if got, want := fmt.Sprint(rows[len(rows)-1]), fmt.Sprint(golden.xrail); got != want {
		return fmt.Errorf("cross-rail row %s, golden %s", got, want)
	}
	groups := cfg.GroupsPerRail()
	for i, want := range golden.ring {
		got := rows[i]
		gGroups, err := strconv.Atoi(want[2])
		if err != nil {
			return err
		}
		gFlows, err := strconv.Atoi(want[3])
		if err != nil {
			return err
		}
		gBytes, err := strconv.ParseFloat(want[4], 64)
		if err != nil {
			return err
		}
		wantRow := []string{want[0], want[1], strconv.Itoa(groups), strconv.Itoa(gFlows / gGroups * groups),
			strconv.FormatFloat(gBytes/float64(gGroups)*float64(groups), 'g', -1, 64), want[5]}
		if fmt.Sprint(got) != fmt.Sprint(wantRow) {
			return fmt.Errorf("rail %d row %v, want %v (golden %v)", i, got, wantRow, want)
		}
	}
	return nil
}
