package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's metric set; BENCHMARK.json lists the same names (a
// self-test keeps them equal).
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the stack sees. Every workload reports
// every one of them; lat_a and lat_b name the workload's two operation
// classes (README.md, "End-to-end metrics"):
//
//	rpc-mix     a = ABCAST round trip        b = CBCAST round trip
//	stream-tcp  a = 64-message window        b = one message, Cast to delivered at all
//	churn       a = membership change        b = background ABCAST (service gap)
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"goodput_mb_s", "MB/s"},
	{"lat_a_p50_ms", "ms"},
	{"lat_a_p90_ms", "ms"},
	{"lat_b_p50_ms", "ms"},
	{"lat_b_p90_ms", "ms"},
}

// perLayerMetrics come from the traced run. A layer a workload does not
// exercise reports 0.
var perLayerMetrics = []metricDef{
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.sched_wait_us_p99", "us"},

	{"isis.local_deliver_us_p50", "us"},
	{"isis.all_delivered_us_p50", "us"},
	{"isis.reply_collect_us_p50", "us"},
	{"isis.send_us_p50", "us"},
	{"isis.reply_call_us_p50", "us"},
	{"app.handler_us_p50", "us"},
	{"isis.single_site_abcast_us_p50", "us"},
	{"isis.single_site_cbcast_us_p50", "us"},

	{"protos.p2p_per_op", "count"},
	{"protos.delivered_per_op", "count"},
	{"protos.flush_ms_p50", "ms"},
	{"protos.install_skew_ms_p50", "ms"},
	{"protos.fenced_per_change", "count"},
	{"protos.resolicits_per_change", "count"},

	{"msg.marshal_ns", "ns"},
	{"msg.unmarshal_ns", "ns"},
	{"msg.allocs_per_roundtrip", "count"},
	{"msg.encodes_per_op", "count"},

	{"vclock.deliverable_ns", "ns"},
	{"vclock.codec_ns", "ns"},
	{"vclock.codec_allocs", "count"},
	{"core.causal_receive_ns", "ns"},
	{"core.causal_allocs_per_msg", "count"},
	{"core.total_propose_commit_ns", "ns"},
	{"core.total_allocs_per_msg", "count"},

	{"events.publish_ns_0sub", "ns"},
	{"events.publish_ns_1sub", "ns"},
	{"events.publish_ns_8sub", "ns"},
	{"events.publish_allocs_1sub", "count"},
	{"events.published_per_change", "count"},
	{"events.dropped", "count"},

	{"transport.sim.send_ns", "ns"},
	{"transport.sim.deliver_us_p50", "us"},
	{"transport.sim.frames_per_msg", "count"},
	{"transport.sim.coalesced_frac", "frac"},
	{"transport.sim.acks_per_msg", "count"},
	{"transport.sim.retx_per_1k", "count"},
	{"transport.sim.allocs_per_msg", "count"},
	{"transport.sim.pair_msgs_per_s", "1/s"},
	{"transport.tcp.send_ns", "ns"},
	{"transport.tcp.deliver_us_p50", "us"},
	{"transport.tcp.frames_per_msg", "count"},
	{"transport.tcp.coalesced_frac", "frac"},
	{"transport.tcp.acks_per_msg", "count"},
	{"transport.tcp.retx_per_1k", "count"},
	{"transport.tcp.allocs_per_msg", "count"},
	{"transport.tcp.pair_msgs_per_s", "1/s"},

	{"simnet.packets_per_op", "count"},
	{"simnet.inter_site_packets_per_op", "count"},
	{"simnet.bytes_per_op", "B"},
	{"simnet.link_wait_us_p99", "us"},

	{"tcpnet.frames_per_msg", "count"},
	{"tcpnet.wire_bytes_per_payload_byte", "ratio"},
	{"tcpnet.frames_dropped", "count"},
	{"tcpnet.reconnects", "count"},

	{"statexfer.xfer_ms_p50", "ms"},

	{"trace.spans", "count"},
	{"trace.change_self_ms_p50", "ms"},
	{"trace.overhead.ops_per_s", "1/s"},
	{"trace.overhead.goodput_mb_s", "MB/s"},
	{"trace.overhead.lat_a_p50_ms", "ms"},
	{"trace.overhead.lat_a_p90_ms", "ms"},
	{"trace.overhead.lat_b_p50_ms", "ms"},
	{"trace.overhead.lat_b_p90_ms", "ms"},
}

// phase is what one measured window produced.
type phase struct {
	elapsed    time.Duration
	attempted  int64     // operations started
	failed     int64     // operations that failed or went unanswered
	ops        int64     // completed operations, the unit of ops_per_s
	changes    int64     // membership changes completed
	bytes      int64     // payload bytes delivered at every member
	latA, latB []float64 // latency samples in ms (see endToEndMetrics)
	aliases    []alias   // the workload's own names for its figures
	violations error     // correctness violations seen during the window
}

// alias is a workload-specific figure printed beside the generic metrics,
// such as rpc-mix's abcast_p50_ms or churn's join_p50_ms.
type alias struct {
	name  string
	value float64
	unit  string
	n     int
}

func (p *phase) failedFrac() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

func (p *phase) alias(name, unit string, samples []float64, q float64) {
	p.aliases = append(p.aliases, alias{name: name, value: percentile(samples, q), unit: unit, n: len(samples)})
}

// combineParts reduces the parts of a window to one value per end-to-end
// metric: the better quartile of the parts' values (the 75th percentile of
// a rate, the 25th of a latency). A part that lost CPU to a neighbour on
// the host reads worse than the rest; the better quartile leaves such parts
// out without resting on the single luckiest one. It also returns the parts
// summed into one phase, whose aliases are medians over the parts.
func combineParts(parts []*phase) (map[string]float64, *phase) {
	per := map[string][]float64{}
	aliases := map[string][]float64{}
	aliasN := map[string]int{}
	total := &phase{}
	for _, p := range parts {
		for k, v := range endToEnd(p) {
			per[k] = append(per[k], v)
		}
		for _, a := range p.aliases {
			aliases[a.name] = append(aliases[a.name], a.value)
			aliasN[a.name] += a.n
		}
		total.elapsed += p.elapsed
		total.attempted += p.attempted
		total.failed += p.failed
		total.ops += p.ops
		total.violations = p.violations // cumulative: the last part's is the whole window's
	}
	out := make(map[string]float64, len(per))
	for k, vs := range per {
		q := 25.0
		if higherIsBetter[k] {
			q = 75
		}
		out[k] = percentile(vs, q)
	}
	for _, a := range parts[0].aliases {
		total.aliases = append(total.aliases, alias{a.name, median(aliases[a.name]), a.unit, aliasN[a.name]})
	}
	return out, total
}

// higherIsBetter marks the end-to-end rates; every other metric is a time.
var higherIsBetter = map[string]bool{"ops_per_s": true, "goodput_mb_s": true}

// endToEnd computes the end-to-end metrics of one window, all but setup_s.
func endToEnd(p *phase) map[string]float64 {
	secs := p.elapsed.Seconds()
	m := map[string]float64{
		"ops_per_s":    float64(p.ops) / secs,
		"goodput_mb_s": float64(p.bytes) / 1e6 / secs,
		"lat_a_p50_ms": percentile(p.latA, 50),
		"lat_a_p90_ms": percentile(p.latA, 90),
		"lat_b_p50_ms": percentile(p.latB, 50),
		"lat_b_p90_ms": percentile(p.latB, 90),
	}
	return m
}

// percentile returns the q-th percentile of xs by linear interpolation
// between closest ranks; 0 for no samples. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// checker collects correctness violations from delivery handlers.
type checker struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.n++
	if len(c.first) < 5 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *checker) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return nil
	}
	return fmt.Errorf("%d correctness violations, first: %s", c.n, strings.Join(c.first, "; "))
}
