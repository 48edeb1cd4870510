package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64) (kinds []string, sizes []int, data []byte) {
		k0, k1, s := newKindStream(seed, 0), newKindStream(seed, 1), newSizeStream(seed)
		for i := 0; i < 1000; i++ {
			kinds = append(kinds, k0.next().String(), k1.next().String())
			sizes = append(sizes, s.next())
		}
		d, _ := payload(seed, 42, 256)
		return kinds, sizes, d
	}
	k1, s1, d1 := draw(7)
	k2, s2, d2 := draw(7)
	if !slices.Equal(k1, k2) || !slices.Equal(s1, s2) || !bytes.Equal(d1, d2) {
		t.Fatal("the same seed produced different inputs")
	}
	k3, s3, d3 := draw(8)
	if slices.Equal(k1, k3) || slices.Equal(s1, s3) || bytes.Equal(d1, d3) {
		t.Fatal("different seeds produced identical inputs")
	}
	for _, w := range []string{"rpc-mix", "stream-tcp", "churn"} {
		a, b := workloadMessages(w, 7), workloadMessages(w, 7)
		for i := range a {
			ea, _ := a[i].Marshal()
			eb, _ := b[i].Marshal()
			if !bytes.Equal(ea, eb) {
				t.Fatalf("%s: replay message %d differs between two draws of one seed", w, i)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-tests compare.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, c := range []struct {
		what string
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEndMetrics}, {"per_layer", bf.PerLayer, perLayerMetrics}} {
		var got, want []string
		for _, m := range c.file {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s in BENCHMARK.json:\n  %v\nbenchmark emits:\n  %v", c.what, got, want)
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists workload %q the benchmark does not have", w.Name)
		}
	}
}

// runOnce runs the benchmark in-process and decodes its last output line.
func runOnce(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "-out", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line is not a result: %v\nstderr: %s", code, err, errOut.String())
	}
	if code != 0 || !res.Correct {
		t.Errorf("exit %d, correct=%v, stderr: %s", code, res.Correct, errOut.String())
	}
	return res, out.String()
}

func metricNames(res result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload briefly; each run must pass its correctness
// checks and emit exactly the end-to-end metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs clusters for several seconds")
	}
	for _, w := range []string{"rpc-mix", "stream-tcp", "churn"} {
		t.Run(w, func(t *testing.T) {
			res, _ := runOnce(t, "-workload", w, "-seed", "3", "-seconds", "1.5", "-trace", "0")
			if got, want := metricNames(res), defNames(endToEndMetrics); !slices.Equal(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, name := range []string{"ops_per_s", "lat_a_p50_ms", "lat_b_p50_ms", "setup_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced variant once: it must emit exactly the
// per-layer metric set and write its spans.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a cluster and the layer replays")
	}
	res, out := runOnce(t, "-workload", "rpc-mix", "-seed", "3", "-seconds", "2", "-trace", "1")
	if got, want := metricNames(res), defNames(perLayerMetrics); !slices.Equal(got, want) {
		t.Errorf("metrics %v, want %v", got, want)
	}
	for _, name := range []string{"trace.spans", "isis.all_delivered_us_p50", "msg.marshal_ns", "transport.tcp.pair_msgs_per_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if !strings.Contains(out, "untraced.ops_per_s") || !strings.Contains(out, "traced.ops_per_s") {
		t.Error("traced run did not print both halves' end-to-end metrics")
	}
}
