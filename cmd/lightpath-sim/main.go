// Command lightpath-sim regenerates every table and figure of "A case
// for server-scale photonic connectivity" (HotNets '24) from the
// simulation, one subcommand per artifact.
//
// Usage:
//
//	lightpath-sim <command> [flags]
//
// Commands:
//
//	info      §3 headline prototype numbers (E12)
//	fig3a     MZI reconfiguration time response + fitted latency (E1)
//	fig3b     reticle stitch loss distribution + Gaussian fit (E2)
//	fig4      waveguide density and crossing budget (E3)
//	table1    Slice-1 ReduceScatter alpha-beta costs (E4)
//	table2    Slice-3 two-stage bucket costs (E5)
//	fig5      bandwidth utilization of sub-rack slices (E6)
//	show      ASCII diagrams of the paper's rack scenarios
//	scale     Figure 5a: cubes spliced into larger tori via OCSes
//	topo      generalized Topology interface demo (-topology rail|torus|mesh)
//	rail      rail-scale fabric campaign: millions of flows through the sharded solver
//	fig6a     single-rack electrical replacement infeasibility (E7)
//	fig6b     cross-rack electrical replacement infeasibility (E8)
//	fig7      optical repair of broken rings (E9)
//	repair    repairability sweep over random racks and failures
//	blast     blast radius sweep, electrical vs optical policy (E10)
//	chaos     fault-injected AllReduce: MTTR, goodput and blast radius under recovery
//	soak      multi-day fleet soak: self-healing availability under Poisson faults
//	controller  million-request lightpath-controller load campaign (X14)
//	sweep     AllReduce completion time vs buffer size (E11)
//	alltoall  AllToAll: per-step circuit reprogramming vs DOR routing (§5)
//	scheduler online reconfiguration policies vs offline optimal (§1/§5)
//	moe       dynamic Mixture-of-Experts circuit workload (§5)
//	hostnet   packetized vs circuit-switched host stacks (§1/§5)
//	protocols eager vs rendezvous on warm circuits
//	moesweep  MoE reconfiguration overhead vs payload size (§5)
//	tenants   random multi-tenant rack sweep generalizing Fig 5c
//	ber       receiver BER waterfall curve
//	ablate    the three design ablations (allocation, fiber, simultaneous)
//	all       run everything above in order
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"lightpath/internal/alloc"
	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/experiments"
	"lightpath/internal/netsim"
	"lightpath/internal/route"
	"lightpath/internal/snapshot"
	"lightpath/internal/topo"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
	"lightpath/internal/viz"
	"lightpath/internal/wafer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lightpath-sim:", err)
		os.Exit(1)
	}
}

type printer interface{ Write(p []byte) (int, error) }

func run(args []string, out printer) error {
	fs := flag.NewFlagSet("lightpath-sim", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2024, "deterministic seed for all stochastic components")
	elements := fs.Int("n", experiments.DefaultTableBuffer, "collective buffer length in float32 elements")
	samples := fs.Int("samples", 10000, "stitch-loss samples for fig3b")
	trials := fs.Int("trials", 8, "trials for the chaos and soak campaigns")
	csvDir := fs.String("csv", "", "directory to also write each experiment's data series as <command>.csv")
	parallel := fs.Bool("parallel", true, "fan Monte-Carlo campaigns across CPUs (output is identical either way)")
	checkpoint := fs.String("checkpoint", "", "directory for per-trial soak/controller checkpoints (enables crash tolerance)")
	resume := fs.Bool("resume", false, "resume soak/controller trials from their checkpoints instead of starting fresh")
	ckptInterval := fs.Uint64("ckpt-interval", 0, "soak/controller checkpoint cadence in event boundaries (0 = campaign default)")
	killAt := fs.Uint64("kill-at", 0, "stop every soak/controller trial at this event boundary after checkpointing (crash-injection test mode)")
	topology := fs.String("topology", "rail", "fabric for the topo command: rail, torus, or mesh")
	rails := fs.Int("rails", 0, "rail count for the rail campaign (0 = acceptance-scale default)")
	servers := fs.Int("servers", 0, "servers per rail for the rail campaign (0 = acceptance-scale default)")
	waves := fs.Int("waves", 0, "overlaid ring waves for the rail campaign (0 = acceptance-scale default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command (try: all)")
	}
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	engine.SetParallel(*parallel)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lightpath-sim: memprofile:", err)
				return
			}
			defer func() { _ = f.Close() }()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "lightpath-sim: memprofile:", err)
			}
		}()
	}

	// checkpointed runs a crash-tolerant campaign (soak, controller)
	// under the shared -checkpoint/-resume/-kill-at flags: it creates
	// the checkpoint directory, and in kill mode reports where the
	// halted trials left their checkpoints instead of a result.
	checkpointed := func(name string, campaign func() (fmt.Stringer, error)) error {
		if *checkpoint != "" {
			if err := os.MkdirAll(*checkpoint, 0o755); err != nil {
				return fmt.Errorf("%s: checkpoint dir: %w", name, err)
			}
		}
		r, err := campaign()
		if errors.Is(err, snapshot.ErrStopped) {
			_, werr := fmt.Fprintf(out, "%s: trials stopped at event %d, checkpoints in %s\n", name, *killAt, *checkpoint)
			return werr
		}
		if err := emit(out, r, err); err != nil {
			return err
		}
		return emitCSV(*csvDir, name, r)
	}
	commands := map[string]func() error{
		"info": func() error { return emit(out, experiments.Info(), nil) },
		"fig3a": func() error {
			r, err := experiments.Fig3a(*seed)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "fig3a", r)
		},
		"fig3b": func() error {
			r, err := experiments.Fig3b(*seed, *samples)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "fig3b", r)
		},
		"fig4": func() error { return emit(out, experiments.Fig4(), nil) },
		"table1": func() error {
			r, err := experiments.Table1(*elements)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "table1", r)
		},
		"table2": func() error {
			r, err := experiments.Table2(*elements)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "table2", r)
		},
		"fig5": func() error {
			r, err := experiments.Fig5(experiments.TableBufferBytes(*elements), *seed)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "fig5", r)
		},
		"fig6a": func() error {
			r, err := experiments.Fig6a()
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "fig6a", r)
		},
		"fig6b": func() error {
			r, err := experiments.Fig6b()
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "fig6b", r)
		},
		"fig7": func() error {
			r, err := experiments.Fig7(*seed)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "fig7", r)
		},
		"blast": func() error { return emit(out, experiments.Blast(), nil) },
		"chaos": func() error {
			r, err := experiments.Chaos(*seed, *trials, experiments.TableBufferBytes(*elements))
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "chaos", r)
		},
		"soak": func() error {
			return checkpointed("soak", func() (fmt.Stringer, error) {
				return experiments.SoakWithOptions(*seed, *trials, experiments.SoakOptions{
					CheckpointDir:   *checkpoint,
					EveryEvents:     *ckptInterval,
					KillAfterEvents: *killAt,
					Resume:          *resume,
				})
			})
		},
		"controller": func() error {
			return checkpointed("controller", func() (fmt.Stringer, error) {
				return experiments.ControllerWithOptions(*seed, experiments.ControllerOptions{
					Trials:          *trials,
					CheckpointDir:   *checkpoint,
					EveryEvents:     *ckptInterval,
					KillAfterEvents: *killAt,
					Resume:          *resume,
				})
			})
		},
		"sweep": func() error {
			r, err := experiments.Sweep(experiments.DefaultSweepBuffers(), *seed)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "sweep", r)
		},
		"moe":    func() error { return runMoE(out, *seed) },
		"ablate": func() error { return runAblations(out, *seed) },
		"hostnet": func() error {
			r, err := experiments.Hostnet(*seed, 400)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "hostnet", r)
		},
		"tenants": func() error {
			r, err := experiments.TenantSweep(*seed, 50)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "tenants", r)
		},
		"ber": func() error {
			r := experiments.Waterfall()
			if err := emit(out, r, nil); err != nil {
				return err
			}
			return emitCSV(*csvDir, "ber", r)
		},
		"alltoall": func() error {
			r, err := experiments.AllToAll(experiments.DefaultAllToAllBuffers())
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "alltoall", r)
		},
		"repair": func() error {
			r, err := experiments.Repairability(*seed, 60)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "repair", r)
		},
		"show": func() error { return runShow(out) },
		"protocols": func() error {
			r := experiments.Protocols()
			if err := emit(out, r, nil); err != nil {
				return err
			}
			return emitCSV(*csvDir, "protocols", r)
		},
		"moesweep": func() error {
			r, err := experiments.MoE(*seed)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "moesweep", r)
		},
		"scale": func() error {
			r, err := experiments.Scale(experiments.TableBufferBytes(*elements), *seed)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "scale", r)
		},
		"topo": func() error { return runTopology(out, *topology) },
		"rail": func() error {
			cfg := experiments.DefaultRailFabricConfig()
			if *rails > 0 {
				cfg.Rails = *rails
			}
			if *servers > 0 {
				cfg.Servers = *servers
			}
			if *waves > 0 {
				cfg.Waves = *waves
			}
			r, err := experiments.RailFabric(cfg)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "rail", r)
		},
		"scheduler": func() error {
			r, err := experiments.Scheduler(*seed, 24)
			if err := emit(out, r, err); err != nil {
				return err
			}
			return emitCSV(*csvDir, "scheduler", r)
		},
	}

	if cmd == "all" {
		order := []string{"info", "fig3a", "fig3b", "fig4", "ber", "table1", "table2",
			"show", "fig5", "scale", "topo", "rail", "tenants", "fig6a", "fig6b", "fig7", "repair",
			"blast", "chaos", "soak", "controller", "sweep", "alltoall", "scheduler", "moe", "moesweep", "hostnet",
			"protocols", "ablate"}
		for _, name := range order {
			if err := commands[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	fn, ok := commands[cmd]
	if !ok {
		return fmt.Errorf("unknown command %q", cmd)
	}
	return fn()
}

// emit prints a result's String rendering unless err is set, and —
// when a CSV directory is configured and the result carries a data
// series — writes <dir>/<name>.csv alongside.
func emit(out printer, r fmt.Stringer, err error) error {
	if err != nil {
		return err
	}
	if _, werr := fmt.Fprint(out, r.String()); werr != nil {
		return werr
	}
	return nil
}

// emitCSV writes the result's series when requested.
func emitCSV(csvDir, name string, r fmt.Stringer) error {
	if csvDir == "" {
		return nil
	}
	t, ok := r.(experiments.Tabular)
	if !ok {
		return nil
	}
	return experiments.WriteCSV(filepath.Join(csvDir, name+".csv"), t)
}

// runTopology demonstrates the generalized Topology interface: build
// the named fabric at demo scale, place a deterministic neighbor-ring
// workload through the link allocator, and solve it with the
// component-sharded max-min solver.
func runTopology(out printer, name string) error {
	var (
		fabric topo.Topology
		err    error
	)
	switch name {
	case "rail":
		fabric, err = topo.NewRail(4, 16, unit.GBps(40), unit.GBps(100))
	case "torus":
		fabric, err = topo.NewTorusFabric(torus.Shape{4, 4, 4}, unit.GBps(50))
	case "mesh":
		fabric, err = topo.NewMesh(4, wafer.DefaultConfig(), unit.GBps(200))
	default:
		return fmt.Errorf("unknown -topology %q (want rail, torus, or mesh)", name)
	}
	if err != nil {
		return err
	}
	a := route.NewLinkAllocator(fabric)
	const demoWaves = 2
	for w := 0; w < demoWaves; w++ {
		for e := 0; e < fabric.Endpoints(); e++ {
			a.Place(e, (e+1)%fabric.Endpoints(), unit.Bytes(w+1)*unit.MB)
		}
	}
	var sim netsim.Sim[int]
	res, err := sim.RunSharded(a.Flows(), a.Capacities())
	if err != nil {
		return err
	}
	link, load := a.MaxLoad()
	_, err = fmt.Fprintf(out,
		"Topology demo: %s fabric behind the generalized Topology interface\n"+
			"  %d endpoints, %d links; %d neighbor-ring flows placed by the link allocator\n"+
			"  peak link load: %d flows on link %d\n"+
			"  sharded max-min solve: makespan %v\n",
		fabric.Name(), fabric.Endpoints(), fabric.Links(), a.Len(), load, link, res.Makespan)
	return err
}

// runShow draws the paper's scenario racks.
func runShow(out printer) error {
	if _, err := fmt.Fprintln(out, "Figure 5b rack (four tenants, fully allocated):"); err != nil {
		return err
	}
	tor, a, err := alloc.Fig5b()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprint(out, viz.RackLayers(tor, a, nil)); err != nil {
		return err
	}
	sc, err := alloc.Fig6a()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(out, "\nFigure 6a rack (failed chip X, spares .):"); err != nil {
		return err
	}
	_, err = fmt.Fprint(out, viz.RackLayers(sc.Torus, sc.Alloc, map[int]bool{sc.FailedChip: true}))
	return err
}

func runMoE(out printer, seed uint64) error {
	fabric, err := core.New(core.Options{Seed: seed})
	if err != nil {
		return err
	}
	res, err := fabric.RunMoE(core.DefaultMoEConfig())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out,
		"Mixture-of-Experts dynamic circuits (§5): %d batches\n"+
			"  circuits: %d new, %d reused, %d evicted\n"+
			"  time: %v reconfiguration + %v transfer = %v total\n"+
			"  reconfiguration overhead: %.2f%%\n",
		res.Batches, res.NewCircuits, res.ReusedCircuits, res.Evictions,
		res.ReconfigTime, res.TransferTime, res.Makespan, res.OverheadFraction()*100)
	return err
}

func runAblations(out printer, seed uint64) error {
	a, err := experiments.AblationAllocation(seed, 8)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprint(out, a.String()); err != nil {
		return err
	}
	f, err := experiments.AblationFiber(seed)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprint(out, f.String()); err != nil {
		return err
	}
	s, err := experiments.AblationSimultaneous(3 << 12)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(out, s.String())
	return err
}
