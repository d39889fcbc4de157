package main

import (
	"math"
	"os"
	"reflect"
	"testing"
)

// TestStreamsDeterministic pins the seed as the only source of
// randomness and checks that every stream can be applied as generated.
func TestStreamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := generate(w, 7, 10, 0.02)
		b := generate(w, 7, 10, 0.02)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal seeds gave different inputs", w.name)
		}
		c := generate(w, 8, 10, 0.02)
		for cl := range a.streams {
			if reflect.DeepEqual(a.streams[cl], c.streams[cl]) {
				t.Errorf("%s: client %d has the same stream under seeds 7 and 8", w.name, cl)
			}
		}
		if len(a.streams) != w.clients {
			t.Fatalf("%s: %d streams for %d clients", w.name, len(a.streams), w.clients)
		}
		for cl := range a.streams {
			checkApplicable(t, w, a, cl)
		}
	}
}

// checkApplicable replays one client's stream against a liveness table:
// no move or delete of a dead id, no insert of a live one, and no id
// that belongs to another client.
func checkApplicable(t *testing.T, w workloadDef, in *input, client int) {
	t.Helper()
	live := make([]bool, len(in.ids))
	for i := range live {
		live[i] = true
	}
	s := &in.streams[client]
	own := func(id uint64) {
		if int(id)%w.clients != client {
			t.Fatalf("%s: client %d touches object %d of another client", w.name, client, id)
		}
	}
	for i, c := range s.calls {
		switch c.kind {
		case opUpdate:
			changes := []uint64{c.id}
			if w.batch > 0 {
				changes = changes[:0]
				for _, ch := range s.batches[c.id] {
					changes = append(changes, ch.ID)
				}
				if len(changes) != w.batch {
					t.Fatalf("%s: call %d is a batch of %d, want %d", w.name, i, len(changes), w.batch)
				}
			}
			for _, id := range changes {
				own(id)
				if !live[id] {
					t.Fatalf("%s: client %d call %d moves dead object %d", w.name, client, i, id)
				}
			}
		case opInsert:
			own(c.id)
			if live[c.id] {
				t.Fatalf("%s: client %d call %d inserts live object %d", w.name, client, i, c.id)
			}
			live[c.id] = true
		case opDelete:
			own(c.id)
			if !live[c.id] {
				t.Fatalf("%s: client %d call %d deletes dead object %d", w.name, client, i, c.id)
			}
			live[c.id] = false
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a hundredth
// of the size: every named metric is there, finite and has a unit, the
// oracle check passes, and the layers a workload bypasses read zero.
func TestSmoke(t *testing.T) {
	cfg := runConfig{seed: 1, seconds: runSeconds, scale: 0.01, dir: t.TempDir()}
	for _, w := range workloads {
		plain, err := runPlain(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkNamed(t, w, plain.metrics, endToEnd, true)

		traced, err := runTraced(w, cfg)
		if err != nil {
			t.Fatalf("%s: traced: %v", w.name, err)
		}
		checkNamed(t, w, traced.metrics, perLayer, false)
		if _, err := os.Stat(cfg.dir + "/trace-" + w.name + ".jsonl"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
		if plain.failed != 0 || traced.failed != 0 {
			t.Errorf("%s: %d + %d calls failed", w.name, plain.failed, traced.failed)
		}

		m := traced.metrics
		expect := func(name string, ok bool) {
			t.Helper()
			if !ok {
				t.Errorf("%s: %s = %v", w.name, name, m[name])
			}
		}
		// A cross-shard move is absorbed twice, as a delete and an insert,
		// so the share can pass 1.
		expect("memtable.absorbed_share", (m["memtable.absorbed_share"] >= 1) == w.memtable && (m["memtable.absorbed_share"] == 0) == !w.memtable)
		expect("wal.bytes_per_move", (m["wal.bytes_per_move"] > 0) == w.durable)
		switch w.name {
		case "batch-hot":
			expect("pagestore.reads_per_op", m["pagestore.reads_per_op"] == 0)
		case "paper-gbu":
			// 5.2 at full size; the hundredth-size tree is two levels lower.
			expect("pagestore.reads_per_op", m["pagestore.reads_per_op"] > 2)
		}
		// The ladder telescopes: the self times add up to the top rung.
		sum := m["core.update_us"] + m["concurrent.self_us_per_update"] + m["frontend.self_us_per_update"] + m["shard.self_us_per_update"]
		if math.Abs(sum-m["trace.ladder_top_us"]) > 1e-6 {
			t.Errorf("%s: ladder self times sum to %v, top rung %v", w.name, sum, m["trace.ladder_top_us"])
		}
	}
	if left, err := os.ReadDir(cfg.dir + "/tmp"); err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
}

// checkNamed asserts that the run reports every metric of defs, finite
// and with a unit, in the shape the driver reads.
func checkNamed(t *testing.T, w workloadDef, m results, defs []metricDef, neverZero bool) {
	t.Helper()
	out, err := project(m, defs, neverZero)
	if err != nil {
		t.Errorf("%s: %v", w.name, err)
		return
	}
	for _, d := range defs {
		v, ok := out[d.Name]
		if !ok || v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s reported as %+v", w.name, d.Name, v)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s has better %q", d.Name, d.Better)
		}
	}
}

// TestManifestMatches keeps the committed BENCHMARK.json in step with
// the workloads and metrics compiled in here.
func TestManifestMatches(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json differs from `bash bench/run.sh --manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestQuartiles checks the spread computation against the values
// Python's statistics.quantiles(range(1, 11), n=4) gives.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
