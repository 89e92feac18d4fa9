package expsched

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderAndConcurrency: results come back in index order, and every
// index runs at once — each call waits for all n to have started, which a
// bounded pool or a sequential loop would never satisfy.
func TestMapOrderAndConcurrency(t *testing.T) {
	const n = 40
	var started sync.WaitGroup
	started.Add(n)
	allStarted := make(chan struct{})
	go func() { started.Wait(); close(allStarted) }()
	out, err := Map(n, func(i int) (int, error) {
		started.Done()
		select {
		case <-allStarted:
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("index %d: not every index started", i)
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMapError: every index runs even when some fail, the lowest-index
// error is the one returned, and no partial results leak.
func TestMapError(t *testing.T) {
	var ran atomic.Int64
	out, err := Map(10, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("boom at %d", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "boom at 3" {
		t.Fatalf("err = %v, want boom at 3", err)
	}
	if out != nil {
		t.Fatalf("partial results leaked: %v", out)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d calls, want 10", ran.Load())
	}
}

// TestMapPanic: a panicking point reports as its index's error, with the
// panic value and a stack, instead of killing the process.
func TestMapPanic(t *testing.T) {
	_, err := Map(5, func(i int) (int, error) {
		if i == 2 {
			panic("kernel deadlock")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "point 2 panicked: kernel deadlock") {
		t.Fatalf("err = %v", err)
	}
}

// TestMapEmpty: zero points is a no-op, not a hang.
func TestMapEmpty(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

type testSpec struct {
	Bench string
	Cores int
	Seed  uint64
}

type testValue struct {
	Elapsed int64
	Check   uint64 // full-range uint64: round-trip must be exact
	Speedup float64
}

// TestCacheRoundTrip: Put then Get returns the value bit-exactly —
// including uint64 values above 2^53, which would corrupt through a
// float64 intermediate.
func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir(), "fp1")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec{Bench: "164.gzip", Cores: 32, Seed: 42}
	want := testValue{Elapsed: 123456789012345, Check: 0xfedcba9876543210, Speedup: 17.25}
	var got testValue
	if ok, err := c.Get(spec, &got); ok || err != nil {
		t.Fatalf("cold Get = %v, %v", ok, err)
	}
	if err := c.Put(spec, want); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Get(spec, &got)
	if err != nil || !ok {
		t.Fatalf("warm Get = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

// TestCacheKeying: different specs and different fingerprints address
// different entries; the same spec+fingerprint addresses the same one.
func TestCacheKeying(t *testing.T) {
	dir := t.TempDir()
	c1, _ := OpenCache(dir, "fp1")
	c2, _ := OpenCache(dir, "fp2")
	spec := testSpec{Bench: "crc32", Cores: 8}
	if err := c1.Put(spec, testValue{Elapsed: 1}); err != nil {
		t.Fatal(err)
	}
	var v testValue
	if ok, _ := c2.Get(spec, &v); ok {
		t.Fatal("fingerprint change must miss")
	}
	other := spec
	other.Cores = 16
	if ok, _ := c1.Get(other, &v); ok {
		t.Fatal("different spec must miss")
	}
	c1b, _ := OpenCache(dir, "fp1")
	if ok, _ := c1b.Get(spec, &v); !ok || v.Elapsed != 1 {
		t.Fatalf("same spec+fingerprint must hit: ok=%v v=%+v", ok, v)
	}
}

// TestCacheCorruptEntryIsMiss: a truncated or garbled entry file degrades
// to a miss — never an error — and is deleted so the recompute's Put
// rewrites it instead of leaving corruption to be re-parsed forever. A
// fingerprint mismatch, by contrast, is someone else's valid entry and
// stays on disk.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCache(dir, "fp")
	spec := testSpec{Bench: "x"}
	key, _ := c.Key(spec)
	path := filepath.Join(dir, key[:2], key+".json")
	for _, corrupt := range []string{
		"{\"trunc",                 // truncated mid-JSON
		"\x00\x01 not json at all", // garbled
		`{"fingerprint":"fp","spec":{},"value":"not-a-testValue-object"}`, // wrong value shape
	} {
		if err := c.Put(spec, testValue{Elapsed: 9}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
			t.Fatal(err)
		}
		var v testValue
		if ok, err := c.Get(spec, &v); ok || err != nil {
			t.Fatalf("corrupt entry %q: ok=%v err=%v", corrupt, ok, err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry %q not deleted (err=%v)", corrupt, err)
		}
		// The recompute path repairs the cache.
		if err := c.Put(spec, testValue{Elapsed: 10}); err != nil {
			t.Fatal(err)
		}
		if ok, _ := c.Get(spec, &v); !ok || v.Elapsed != 10 {
			t.Fatalf("repaired entry: ok=%v v=%+v", ok, v)
		}
	}

	// A foreign fingerprint is a miss but not corruption: left in place.
	other, _ := OpenCache(dir, "other-fp")
	var v testValue
	if ok, _ := other.Get(spec, &v); ok {
		t.Fatal("foreign fingerprint must miss")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("foreign-fingerprint entry must survive: %v", err)
	}
}

// TestCacheStats: entry count and byte size track Puts; temp files and
// non-entry files are not counted.
func TestCacheStats(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCache(dir, "fp")
	st, err := c.Stats()
	if err != nil || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("empty cache stats = %+v, %v", st, err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(testSpec{Bench: "x", Cores: i}, testValue{Elapsed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats()
	if err != nil || st.Entries != 3 {
		t.Fatalf("stats = %+v, %v (want 3 entries)", st, err)
	}
	if st.Bytes <= 0 {
		t.Fatalf("stats bytes = %d, want > 0", st.Bytes)
	}
}

// TestSourceFingerprint: stable across calls, sensitive to content
// changes, blind to _test.go files, and loud about missing directories.
func TestSourceFingerprint(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package a\n")
	write("b.go", "package a\nvar B = 1\n")
	fp1, err := SourceFingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := SourceFingerprint(dir)
	if err != nil || fp1 != fp2 {
		t.Fatalf("unstable: %s vs %s (%v)", fp1, fp2, err)
	}
	write("a_test.go", "package a\n")
	fp3, _ := SourceFingerprint(dir)
	if fp3 != fp1 {
		t.Fatal("_test.go files must not affect the fingerprint")
	}
	write("b.go", "package a\nvar B = 2\n")
	fp4, _ := SourceFingerprint(dir)
	if fp4 == fp1 {
		t.Fatal("content change must change the fingerprint")
	}
	if _, err := SourceFingerprint(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing directory must error")
	}
}
