package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "solve", Start: ms(2), End: ms(6)},
		{ID: 3, Parent: 2, Name: "kernel", Start: ms(3), End: ms(4)},
		{ID: 4, Parent: 1, Name: "tetris", Start: ms(7), End: ms(8)},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"op": 0.005, "solve": 0.003, "kernel": 0.001, "tetris": 0.001} {
		if !near(self[name], want) {
			t.Errorf("%s: self %gs, want %gs", name, self[name], want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Concurrent children overlap each other, and one runs past its
	// parent's end: covered time is the union clipped to the parent,
	// [1,6] ∪ [8,10] = 7ms of the parent's 10ms.
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(3), End: ms(6)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(8), End: ms(12)},
		{ID: 5, Parent: 1, Name: "a", Start: ms(2), End: ms(3)}, // nested inside another child
	}
	self := selfTimes(spans)
	if !near(self["request"], 0.003) {
		t.Errorf("request self %gs, want 0.003s", self["request"])
	}
	// Same-named spans add up; a child's own self time is its full length.
	if !near(self["a"], 0.004) || !near(self["b"], 0.003) || !near(self["c"], 0.004) {
		t.Errorf("children self %v", self)
	}
}

func TestSelfTimeChildrenCoverParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: ms(5), End: ms(9)},
		{ID: 2, Parent: 1, Name: "x", Start: ms(4), End: ms(7)},
		{ID: 3, Parent: 1, Name: "y", Start: ms(7), End: ms(9)},
	}
	if self := selfTimes(spans); !near(self["op"], 0) {
		t.Errorf("fully covered parent has self %gs, want 0", self["op"])
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin(7, 0, "op")
	tr.call(7, root, "child", func() { time.Sleep(2 * time.Millisecond) })
	tr.end(root)
	due := time.Now()
	tr.record(8, 0, "serve.request", due, due.Add(ms(3)))

	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	op, child := tr.spans[0], tr.spans[1]
	if child.Parent != op.ID || child.Trace != 7 || op.Parent != 0 {
		t.Errorf("parent links: op %+v child %+v", op, child)
	}
	if child.Start < op.Start || child.End > op.End || child.End-child.Start < ms(2) {
		t.Errorf("child [%v,%v] not inside op [%v,%v] or too short", child.Start, child.End, op.Start, op.End)
	}
	if got := tr.spans[2].End - tr.spans[2].Start; got != ms(3) {
		t.Errorf("recorded span lasts %v, want 3ms", got)
	}

	path, err := tr.write(t.TempDir(), "spans.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 3 || got[1] != child {
		t.Errorf("read back %+v", got)
	}
}
