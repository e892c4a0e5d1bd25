package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// schedule is every seeded input of a run, gathered for comparison.
type schedule struct {
	Arrivals  []arrival
	Sequence  []arrival
	Small     []string
	Big       []string
	Live      []classShape
	LiveTrace []editStep
	Storm     []classShape
	StormSeq  []stormPick
}

func drawAll(seed int64) schedule {
	r := newRand(seed, "call-steady-arrivals")
	small, big := payloadPool(newRand(seed, "payloads"), poolSmall, poolBig)
	live := liveShapes(seed, livePhases)
	return schedule{
		Arrivals:  poissonSchedule(r, openRate, 2*time.Second, len(callBindings), poolSmall, poolBig),
		Sequence:  callSequence(r, 1000, len(callBindings), poolSmall, poolBig),
		Small:     small,
		Big:       big,
		Live:      live,
		LiveTrace: liveTrace(seed, 0, len(live[0].methods), 2*time.Second),
		Storm:     stormShapes(seed),
		StormSeq:  stormTrace(seed, 1000),
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	a, b := drawAll(7), drawAll(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two draws with seed 7 differ")
	}
}

func TestOtherSeedOtherSchedule(t *testing.T) {
	a, b := drawAll(7), drawAll(8)
	for name, differ := range map[string]bool{
		"arrivals":    !reflect.DeepEqual(a.Arrivals, b.Arrivals),
		"sequence":    !reflect.DeepEqual(a.Sequence, b.Sequence),
		"payloads":    !reflect.DeepEqual(a.Small, b.Small),
		"live trace":  !reflect.DeepEqual(a.LiveTrace, b.LiveTrace),
		"storm shape": !reflect.DeepEqual(a.Storm, b.Storm),
		"live shapes": !reflect.DeepEqual(a.Live, b.Live),
		"storm steps": !reflect.DeepEqual(a.StormSeq, b.StormSeq),
	} {
		if !differ {
			t.Errorf("seeds 7 and 8 draw the same %s", name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	s := drawAll(3)
	if n := len(s.Arrivals); n < int(openRate) || n > 3*int(openRate) {
		t.Errorf("%d arrivals in 2 s at %v/s", n, openRate)
	}
	big := 0
	for _, a := range s.Sequence {
		if a.big {
			big++
		}
	}
	if big < 50 || big > 150 {
		t.Errorf("%d of 1000 calls carry 4 KiB, want about %v", big, bigShare*1000)
	}
	nWatched := 0
	for i := range s.Storm {
		if watched(i) {
			nWatched++
		}
	}
	if nWatched != stormWatched {
		t.Errorf("%d watched storm classes, want %d", nWatched, stormWatched)
	}
	for _, c := range s.Live {
		if n := len(c.methods); n < 4 || n > 16 {
			t.Errorf("live class %s has %d methods, want 4..16", c.name, n)
		}
	}
	if got := stratified(newRand(1, "t"), 4, 4, 16); len(got) != 4 {
		t.Errorf("stratified: %v", got)
	}
	bursts := 0
	for _, st := range s.LiveTrace {
		if st.burstStart {
			bursts++
		}
	}
	if bursts < 50 {
		t.Errorf("live trace for 2 s has %d bursts", bursts)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: %s %s, BENCHMARK.json has %s %s", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTime(t *testing.T) {
	root := span{name: "call", start: 0, end: 100}
	spans := []span{
		root,
		{name: "body", parent: "call", start: 10, end: 30},
		{name: "body", parent: "call", start: 20, end: 50},
		{name: "other", parent: "x", start: 60, end: 70},
	}
	if got := selfTime(root, spans); got != 60 {
		t.Errorf("self time %d, want 60", got)
	}
}
