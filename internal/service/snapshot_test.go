package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// snapshotEngine compiles n distinct corpus functions into a fresh
// engine and returns it with the requests it served.
func snapshotEngine(t *testing.T, n int) (*Engine, []Request) {
	t.Helper()
	e := New(Config{Workers: 2})
	t.Cleanup(func() { e.Close(context.Background()) })
	var reqs []Request
	for _, fn := range corpus(t, n) {
		req := Request{Source: fn.Src, EmitIR: true}
		if _, err := e.Compile(context.Background(), req); err != nil {
			t.Fatalf("compile %s: %v", fn.Name, err)
		}
		reqs = append(reqs, req)
	}
	return e, reqs
}

func TestSnapshotRoundTrip(t *testing.T) {
	src, reqs := snapshotEngine(t, 5)

	var buf bytes.Buffer
	wrote, err := src.SaveSnapshot(&buf, "shard-a")
	if err != nil {
		t.Fatal(err)
	}
	if wrote != len(reqs) {
		t.Fatalf("saved %d entries, want %d", wrote, len(reqs))
	}

	// Record the source engine's answers for parity.
	want := make([]string, len(reqs))
	for i, req := range reqs {
		resp, err := src.Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resp.IR
	}

	dst := New(Config{Workers: 2})
	defer dst.Close(context.Background())
	loaded, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != wrote {
		t.Fatalf("loaded %d entries, want %d", loaded, wrote)
	}
	for i, req := range reqs {
		resp, err := dst.Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("request %d: not a cache hit after snapshot load", i)
		}
		if resp.IR != want[i] {
			t.Fatalf("request %d: IR differs from the snapshotted engine's", i)
		}
	}
	m := dst.Metrics()
	if m.Compiles != 0 {
		t.Fatalf("warm engine compiled %d times, want 0", m.Compiles)
	}
	if m.SnapshotLoads != 1 || m.SnapshotEntries != int64(wrote) {
		t.Fatalf("loads=%d entries=%d, want 1/%d", m.SnapshotLoads, m.SnapshotEntries, wrote)
	}
	if m.SnapshotWarmHits != int64(len(reqs)) {
		t.Fatalf("snapshot warm hits %d, want %d", m.SnapshotWarmHits, len(reqs))
	}
	if m.SnapshotRejected != 0 {
		t.Fatalf("rejected %d, want 0", m.SnapshotRejected)
	}
}

// TestSnapshotRejection feeds the loader every class of damaged file —
// truncation, bit flips in entry payload / key / checksum, a stale
// cache-key version, wrong formats, garbage — and requires the same
// outcome for each: an ErrSnapshotRejected error, a bumped rejected
// counter, a stone-cold cache, and no panic.
func TestSnapshotRejection(t *testing.T) {
	src, reqs := snapshotEngine(t, 4)
	var buf bytes.Buffer
	if _, err := src.SaveSnapshot(&buf, "shard-a"); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	lines := bytes.SplitAfter(good, []byte("\n"))

	// flip corrupts the file at the first occurrence of marker past the
	// header line.
	flip := func(marker string) []byte {
		hdrLen := len(lines[0])
		i := bytes.Index(good[hdrLen:], []byte(marker))
		if i < 0 {
			t.Fatalf("marker %q not found", marker)
		}
		bad := append([]byte(nil), good...)
		bad[hdrLen+i+len(marker)] ^= 0x01
		return bad
	}
	rewriteHeader := func(mutate func(map[string]any)) []byte {
		var hdr map[string]any
		if err := json.Unmarshal(lines[0], &hdr); err != nil {
			t.Fatal(err)
		}
		mutate(hdr)
		out, err := json.Marshal(hdr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, '\n')
		return append(out, good[len(lines[0]):]...)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("not json at all\n")},
		{"header-only-truncation", lines[0]},
		{"mid-entry-truncation", good[:len(good)-len(lines[len(lines)-2])/2-1]},
		{"missing-last-entry", good[:len(good)-len(lines[len(lines)-2])]},
		{"bit-flipped-entry", flip(`"entry":{"ir":`)},
		{"bit-flipped-key", flip(`"key":"`)},
		{"bit-flipped-checksum", flip(`"sum":"`)},
		{"stale-cache-key-version", rewriteHeader(func(h map[string]any) { h["cacheKey"] = "v2" })},
		// v3 entries hold assembly in the format before .zero runs.
		{"previous-cache-key-version", rewriteHeader(func(h map[string]any) { h["cacheKey"] = "v3" })},
		{"future-snapshot-version", rewriteHeader(func(h map[string]any) { h["version"] = 99 })},
		{"alien-format", rewriteHeader(func(h map[string]any) { h["format"] = "someone-elses-file" })},
		{"overclaimed-entry-count", rewriteHeader(func(h map[string]any) { h["entries"] = 1000 })},
		// The header is unchecksummed, so a hostile count must reject
		// without panicking or allocating: a negative count used to panic
		// makeslice, a huge one used to attempt the allocation up front.
		{"negative-entry-count", rewriteHeader(func(h map[string]any) { h["entries"] = -1 })},
		{"absurd-entry-count", rewriteHeader(func(h map[string]any) { h["entries"] = int64(1) << 40 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Config{Workers: 1})
			defer e.Close(context.Background())
			n, err := e.LoadSnapshot(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("load succeeded, want rejection")
			}
			if !errors.Is(err, ErrSnapshotRejected) {
				t.Fatalf("error %v does not wrap ErrSnapshotRejected", err)
			}
			if n != 0 {
				t.Fatalf("reported %d loaded entries on rejection", n)
			}
			m := e.Metrics()
			if m.SnapshotRejected != 1 {
				t.Fatalf("rejected counter %d, want 1", m.SnapshotRejected)
			}
			if m.CacheEntries != 0 {
				t.Fatalf("cache holds %d entries after rejection, want cold", m.CacheEntries)
			}
			// Cold but alive: the engine still compiles.
			resp, err := e.Compile(context.Background(), reqs[0])
			if err != nil {
				t.Fatalf("compile after rejection: %v", err)
			}
			if resp.CacheHit {
				t.Fatal("cache hit on a cold engine")
			}
		})
	}
}

func TestSnapshotFileMissingIsColdStart(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close(context.Background())
	n, err := e.LoadSnapshotFile(t.TempDir() + "/nope.snapshot")
	if err != nil || n != 0 {
		t.Fatalf("missing file: (%d, %v), want (0, nil)", n, err)
	}
	if m := e.Metrics(); m.SnapshotRejected != 0 {
		t.Fatalf("missing file counted as rejection (%d)", m.SnapshotRejected)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	src, reqs := snapshotEngine(t, 3)
	path := t.TempDir() + "/cache.snapshot"
	wrote, err := src.SaveSnapshotFile(path, "shard-a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".snapshot") || wrote != len(reqs) {
		t.Fatalf("wrote %d entries to %s", wrote, path)
	}
	dst := New(Config{Workers: 1})
	defer dst.Close(context.Background())
	loaded, err := dst.LoadSnapshotFile(path)
	if err != nil || loaded != wrote {
		t.Fatalf("load: (%d, %v), want (%d, nil)", loaded, err, wrote)
	}
	resp, err := dst.Compile(context.Background(), reqs[0])
	if err != nil || !resp.CacheHit {
		t.Fatalf("post-load compile: hit=%v err=%v", resp != nil && resp.CacheHit, err)
	}
	if m := src.Metrics(); m.SnapshotSaves != 1 {
		t.Fatalf("snapshot saves = %d after one durable save, want 1", m.SnapshotSaves)
	}
}

// TestSnapshotSavesCountDurableWritesOnly pins the saves counter to the
// durable rename: the chaos harness gates a victim kill on it, so a
// stream-only save or a failed rename must not bump it.
func TestSnapshotSavesCountDurableWritesOnly(t *testing.T) {
	src, _ := snapshotEngine(t, 2)

	var buf bytes.Buffer
	if _, err := src.SaveSnapshot(&buf, "shard-a"); err != nil {
		t.Fatal(err)
	}
	if m := src.Metrics(); m.SnapshotSaves != 0 {
		t.Fatalf("stream save bumped the durable-saves counter to %d", m.SnapshotSaves)
	}

	// Renaming the temp file onto an existing directory fails, so the
	// save is not durable and must not count.
	if _, err := src.SaveSnapshotFile(t.TempDir(), "shard-a"); err == nil {
		t.Fatal("SaveSnapshotFile onto a directory succeeded, want rename failure")
	}
	if m := src.Metrics(); m.SnapshotSaves != 0 {
		t.Fatalf("failed rename bumped the durable-saves counter to %d", m.SnapshotSaves)
	}

	if _, err := src.SaveSnapshotFile(t.TempDir()+"/cache.snapshot", "shard-a"); err != nil {
		t.Fatal(err)
	}
	if m := src.Metrics(); m.SnapshotSaves != 1 {
		t.Fatalf("snapshot saves = %d after one durable save, want 1", m.SnapshotSaves)
	}
}

// TestSnapshotPreservesRecency pins the oldest-first write order: after
// reloading into a small cache, the entries that survive eviction must
// be the most recently used ones.
func TestSnapshotPreservesRecency(t *testing.T) {
	src, reqs := snapshotEngine(t, 6)
	var buf bytes.Buffer
	if _, err := src.SaveSnapshot(&buf, ""); err != nil {
		t.Fatal(err)
	}
	// Load into a cache that can only hold half the snapshot: the
	// oldest-first write order means eviction keeps the newest three.
	dst := New(Config{Workers: 1, CacheEntries: 3})
	defer dst.Close(context.Background())
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for i := len(reqs) - 3; i < len(reqs); i++ {
		resp, err := dst.Compile(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("recent entry %d evicted; write order lost recency", i)
		}
	}
}
