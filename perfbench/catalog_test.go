package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric lists this program
// prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for i := 0; i < len(declared) && i < len(printed); i++ {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {0.0, 1}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{name: "bench.measure", id: 1, start: 0, end: 100},
		{name: "serve.Client.PredictBatch", id: 2, parent: 1, start: 10, end: 50},
		{name: "stream.Cursor.NextBatch", id: 3, parent: 1, start: 50, end: 60},
		{name: "bench.other", id: 4, start: 0, end: 5},
	}
	lt := selfTimes(spans)
	if got := lt["bench"].self; got != 50+5 {
		t.Errorf("bench self = %d, want 55", got)
	}
	if got := lt["serve"].self; got != 40 {
		t.Errorf("serve self = %d, want 40", got)
	}
	if got := len(under(spans, "bench.measure")); got != 3 {
		t.Errorf("under(bench.measure) = %d spans, want 3", got)
	}
}
