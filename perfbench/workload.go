package main

import (
	"fmt"
	"sort"
	"time"

	isis "repro"
	"repro/internal/simnet"
)

// workload is one benchmark scenario. A run calls setup, then measure once
// per window, then check, then close.
type workload interface {
	// setup builds the cluster, forms the group and warms it up.
	setup() error
	// measure runs the load for d and returns what the window produced.
	measure(d time.Duration) *phase
	// check verifies the delivery logs accumulated so far.
	check() error
	close()
	cluster() *isis.Cluster
	// tracing installs tr (nil removes it) for the handlers' stamps.
	tracing(tr *tracer)
	// layerExtras adds workload-specific per-layer figures from the traced
	// window (membership spans, state transfer).
	layerExtras(tr *tracer, vals map[string]float64)
}

// workloads maps each workload's name to its constructor.
var workloads = map[string]func(seed int64) workload{
	"rpc-mix":    func(seed int64) workload { return newRPCMix(seed) },
	"stream-tcp": func(seed int64) workload { return newStreamTCP(seed) },
	"churn":      func(seed int64) workload { return newChurn(seed) },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// groupSize is the number of long-lived members in every workload's group,
// so the number of handlers a traced op should reach.
const groupSize = 3

// Entry points the workloads bind.
const (
	entryAB = isis.EntryUserBase
	entryCB = isis.EntryUserBase + 1
)

// clusterConfig is the shared cluster set-up: heartbeats off in every
// workload, because test-grade failure timeouts misfire under load.
func clusterConfig(sites int, backend string) isis.ClusterConfig {
	return isis.ClusterConfig{
		Sites:             sites,
		Backend:           backend,
		Net:               simnet.FastConfig(),
		DisableHeartbeats: true,
		CallTimeout:       10 * time.Second,
		ReplyTimeout:      10 * time.Second,
	}
}

// formGroup spawns one process per site, lets bind install its handlers,
// creates the group at the first and joins the rest, then waits until
// every member's view lists all of them.
func formGroup(c *isis.Cluster, name string, sites []isis.SiteID, bind func(i int, p *isis.Process)) (isis.Address, []*isis.Process, error) {
	var gid isis.Address
	procs := make([]*isis.Process, len(sites))
	for i, s := range sites {
		p, err := c.Site(s).Spawn()
		if err != nil {
			return gid, nil, err
		}
		procs[i] = p
		bind(i, p)
		if i == 0 {
			v, err := p.CreateGroup(name)
			if err != nil {
				return gid, nil, err
			}
			gid = v.Group
		} else if _, err := p.Join(gid, isis.JoinOptions{}); err != nil {
			return gid, nil, err
		}
	}
	for _, p := range procs {
		if err := waitView(p, gid, func(v isis.View) bool { return v.Size() == len(sites) }); err != nil {
			return gid, nil, err
		}
	}
	return gid, procs, nil
}

// waitView polls p's view of gid until cond holds.
func waitView(p *isis.Process, gid isis.Address, cond func(isis.View) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := p.CurrentView(gid); ok && cond(v) {
			return nil
		}
		if time.Now().After(deadline) {
			v, _ := p.CurrentView(gid)
			return fmt.Errorf("view condition not met within 10s (view %v)", v)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
