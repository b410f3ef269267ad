package fleet

import (
	"container/heap"
	"sort"
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// TestConfigValidateTable exercises validate directly — not through
// RunCheckpointed, whose withDefaults pass papers over zero values —
// with one case per guard clause, plus the valid baseline.
func TestConfigValidateTable(t *testing.T) {
	valid := Config{}.withDefaults()
	if err := valid.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero wafers", func(c *Config) { c.Wafers = 0 }},
		{"single wafer", func(c *Config) { c.Wafers = 1 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"negative horizon", func(c *Config) { c.Horizon = -unit.Second }},
		{"zero sample cadence", func(c *Config) { c.SampleEvery = 0 }},
		{"negative sample cadence", func(c *Config) { c.SampleEvery = -unit.Second }},
		{"zero crews", func(c *Config) { c.Crews = 0 }},
		{"negative crews", func(c *Config) { c.Crews = -1 }},
		{"negative spares", func(c *Config) { c.Spares = -1 }},
		{"zero jobs", func(c *Config) { c.Jobs = 0 }},
		{"negative jobs", func(c *Config) { c.Jobs = -1 }},
		{"zero width", func(c *Config) { c.Width = 0 }},
		{"negative width", func(c *Config) { c.Width = -2 }},
		{"unknown sample mode", func(c *Config) { c.SampleMode = SampleMode(3) }},
		{"negative sample mode", func(c *Config) { c.SampleMode = SampleMode(-1) }},
		{"zero reservoir", func(c *Config) { c.ReservoirCap = 0 }},
		{"negative reservoir", func(c *Config) { c.ReservoirCap = -8 }},
		{"endpoints exceed chips", func(c *Config) { c.Jobs = 1000 }},
		{"spares exceed chips", func(c *Config) { c.Spares = 1000 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			if err := cfg.validate(); err == nil {
				t.Errorf("validate accepted %+v", cfg)
			}
		})
	}
}

// TestRepairQueueDrainOrder is a property test for the repair
// min-heap: any push/pop interleaving drains in (completion time,
// service order). The seq tie-break is load-bearing — simultaneous
// completions are common when MTTR draws collide — so equal times
// must preserve service order exactly.
func TestRepairQueueDrainOrder(t *testing.T) {
	r := rng.New(2026)
	for trial := 0; trial < 200; trial++ {
		var q repairQueue
		var expected []repairEvent
		seq := 0
		// Random interleaving of pushes and pops; coarse times force
		// frequent ties so the seq ordering actually decides.
		for op := 0; op < 60; op++ {
			if len(q) > 0 && r.Intn(3) == 0 {
				got := heap.Pop(&q).(repairEvent)
				// The popped event must be the minimum of everything
				// currently queued.
				for _, ev := range q {
					if ev.at < got.at || (ev.at == got.at && ev.seq < got.seq) {
						t.Fatalf("trial %d: popped (%v, %d) before (%v, %d)",
							trial, got.at, got.seq, ev.at, ev.seq)
					}
				}
				continue
			}
			ev := repairEvent{at: unit.Seconds(r.Intn(8)), seq: seq}
			seq++
			heap.Push(&q, ev)
			expected = append(expected, ev)
		}
		// Drain what's left: the concatenated pop order of a fresh
		// copy must equal the (at, seq) sort of everything pushed.
		var fresh repairQueue
		for _, ev := range expected {
			heap.Push(&fresh, ev)
		}
		sort.Slice(expected, func(i, j int) bool {
			if expected[i].at != expected[j].at {
				return expected[i].at < expected[j].at
			}
			return expected[i].seq < expected[j].seq
		})
		for i, want := range expected {
			got := heap.Pop(&fresh).(repairEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d: drain[%d] = (%v, %d), want (%v, %d)",
					trial, i, got.at, got.seq, want.at, want.seq)
			}
		}
	}
}
