package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	isis "repro"
	"repro/internal/msg"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

// runTraced is the -trace 1 run. It sets up once, measures half the window
// untraced (counters only) and half traced (stamps, simnet link tracer,
// event subscriptions), closes the cluster, then runs the layer replays.
// Counter-based figures come from the untraced half; span-based ones from
// the traced half; the difference of the two halves' end-to-end metrics is
// the tracing overhead.
func runTraced(name string, seed int64, window time.Duration, outDir string, stdout io.Writer) (result, error) {
	w := workloads[name](seed)
	if err := w.setup(); err != nil {
		w.close()
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	c := w.cluster()
	half := window / 2

	before := takeSnap(c)
	plain := w.measure(half)
	after := takeSnap(c)

	tr := newTracer()
	evBefore := c.EventStats()
	tr.attach(c)
	w.tracing(tr)
	traced := w.measure(half)
	w.tracing(nil)
	tr.detach(c)
	evAfter := c.EventStats()
	checkErr := w.check()

	vals := make(map[string]float64)
	counterLayers(vals, before, after, plain)
	ct := tr.buildCastSpans()
	vals["isis.local_deliver_us_p50"] = median(ct.localDeliver)
	vals["isis.all_delivered_us_p50"] = median(ct.allDelivered)
	vals["isis.reply_collect_us_p50"] = median(ct.replyCollect)
	vals["isis.send_us_p50"] = median(ct.send)
	vals["isis.reply_call_us_p50"] = median(ct.replyCall)
	vals["app.handler_us_p50"] = median(ct.handler)
	vals["simnet.link_wait_us_p99"] = percentile(tr.waits, 99)
	w.layerExtras(tr, vals)
	vals["trace.spans"] = float64(len(tr.spans))
	vals["events.published_per_change"] = float64(evAfter.Published-evBefore.Published) / float64(max(1, traced.changes))
	dropped := evAfter.Dropped - evBefore.Dropped
	vals["events.dropped"] = float64(dropped)
	plainE2E, tracedE2E := endToEnd(plain), endToEnd(traced)
	for k, v := range tracedE2E {
		vals["trace.overhead."+k] = v - plainE2E[k]
	}
	w.close()

	replayErr := replays(name, seed, vals)
	spanErr := tr.writeSpans(filepath.Join(outDir, "spans-"+name+".tsv"))

	printHuman(stdout, name, "untraced.", plainE2E, plain)
	printHuman(stdout, name, "traced.", tracedE2E, traced)
	printHuman(stdout, name, "", vals, nil)

	var dropErr error
	if dropped != 0 {
		dropErr = fmt.Errorf("event stream dropped %d events in the traced window", dropped)
	}
	errs := errors.Join(checkErr, plain.violations, traced.violations, dropErr, replayErr, spanErr)
	return result{
		Correct:   errs == nil,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   withUnits(vals, perLayerMetrics),
	}, errs
}

// snap is a reading of every counter the program exports, plus the Go
// runtime's own.
type snap struct {
	cpu     time.Duration
	rt      []metrics.Sample
	ctr     isis.Counters
	encodes uint64
	sim     simnet.Stats
	tcp     tcpnet.Stats
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func takeSnap(c *isis.Cluster) snap {
	s := snap{ctr: c.Counters(), encodes: msg.EncodeCount()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.rt = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	if sim, ok := c.Fabric().(*simnet.Network); ok {
		s.sim = sim.Stats()
	}
	if tcp, ok := c.Fabric().(*tcpnet.Network); ok {
		s.tcp = tcp.Stats()
	}
	return s
}

// counterLayers fills the counter-based per-layer metrics from two readings
// around an untraced window.
func counterLayers(vals map[string]float64, a, b snap, ph *phase) {
	ops := float64(max(1, ph.ops))
	u64 := func(i int) float64 { return float64(b.rt[i].Value.Uint64() - a.rt[i].Value.Uint64()) }
	f64 := func(i int) float64 { return b.rt[i].Value.Float64() - a.rt[i].Value.Float64() }

	vals["runtime.cpu_us_per_op"] = float64(b.cpu-a.cpu) / 1e3 / ops
	vals["runtime.allocs_per_op"] = u64(0) / ops
	vals["runtime.bytes_per_op"] = u64(1) / ops
	if busy := f64(3) - f64(4); busy > 0 {
		vals["runtime.gc_cpu_frac"] = f64(2) / busy
	}
	vals["runtime.sched_wait_us_p99"] = histDeltaQuantile(a.rt[5].Value.Float64Histogram(), b.rt[5].Value.Float64Histogram(), 0.99) * 1e6

	vals["protos.p2p_per_op"] = float64(b.ctr.PointToPoints-a.ctr.PointToPoints) / ops
	vals["protos.delivered_per_op"] = float64(b.ctr.Delivered-a.ctr.Delivered) / ops
	vals["msg.encodes_per_op"] = float64(b.encodes-a.encodes) / ops

	vals["simnet.packets_per_op"] = float64(b.sim.PacketsSent-a.sim.PacketsSent) / ops
	vals["simnet.inter_site_packets_per_op"] = float64(b.sim.InterSitePackets-a.sim.InterSitePackets) / ops
	vals["simnet.bytes_per_op"] = float64(b.sim.BytesSent-a.sim.BytesSent) / ops

	vals["tcpnet.frames_per_msg"] = float64(b.tcp.FramesSent-a.tcp.FramesSent) / ops
	if wire := float64(b.tcp.BytesSent - a.tcp.BytesSent); wire > 0 && ph.bytes > 0 {
		// The ideal wire load is each payload byte once per remote member.
		vals["tcpnet.wire_bytes_per_payload_byte"] = wire / float64(ph.bytes*(groupSize-1))
	}
	vals["tcpnet.frames_dropped"] = float64(b.tcp.FramesDropped - a.tcp.FramesDropped)
	vals["tcpnet.reconnects"] = float64(b.tcp.Dials - a.tcp.Dials)
}

// histDeltaQuantile returns the q-quantile of the samples recorded between
// two readings of a cumulative histogram (the upper bound of its bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if float64(cum) >= q*float64(total) {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}
