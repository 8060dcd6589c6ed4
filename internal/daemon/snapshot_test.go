package daemon

// Warm-restart tests at the daemon layer: a daemon given a snapshot
// path must come back warm after Close + New on the same path, force a
// save on POST /v1/snapshot, and surface the snapshot counters in
// /v1/cachestats.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rolag/internal/rolagdapi"
	"rolag/internal/service"
)

// snapshotDaemon starts a daemon with a snapshot at path. The periodic
// ticker is disabled so the tests control exactly when saves happen.
func snapshotDaemon(t *testing.T, path string) (*Daemon, *httptest.Server) {
	t.Helper()
	d := New(Config{
		Engine:           service.Config{Workers: 2},
		RequestCap:       10 * time.Second,
		SnapshotPath:     path,
		SnapshotInterval: -1,
	})
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func compileSources(t *testing.T, srv *httptest.Server, srcs []string) []rolagdapi.CompileResponse {
	t.Helper()
	out := make([]rolagdapi.CompileResponse, len(srcs))
	for i, src := range srcs {
		body, _ := json.Marshal(rolagdapi.CompileRequest{Source: src})
		resp, cr := postCompile(t, srv, string(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d: status %d", i, resp.StatusCode)
		}
		out[i] = cr
	}
	return out
}

func TestDaemonWarmRestart(t *testing.T) {
	path := t.TempDir() + "/shard.snapshot"
	srcs := []string{
		"void f(int *a) { a[0] = a[0] + 1; a[1] = a[1] + 1; }",
		"void g(int *a) { a[0] = a[0] * 2; a[1] = a[1] * 2; a[2] = a[2] * 2; }",
		"int h(int x) { return x + 41; }",
	}

	d1, srv1 := snapshotDaemon(t, path)
	first := compileSources(t, srv1, srcs)
	// Graceful shutdown writes the drain-time snapshot.
	if err := d1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot after drain: %v", err)
	}

	d2, srv2 := snapshotDaemon(t, path)
	defer d2.Close(context.Background())
	second := compileSources(t, srv2, srcs)
	for i := range srcs {
		if !second[i].CacheHit {
			t.Fatalf("source %d: not a cache hit after warm restart", i)
		}
		if second[i].IR != first[i].IR {
			t.Fatalf("source %d: IR changed across restart", i)
		}
	}
	m := d2.Engine().Metrics()
	if m.Compiles != 0 {
		t.Fatalf("warm restart still compiled %d times", m.Compiles)
	}
	if m.SnapshotEntries != int64(len(srcs)) || m.SnapshotWarmHits != int64(len(srcs)) {
		t.Fatalf("entries=%d warmHits=%d, want %d/%d",
			m.SnapshotEntries, m.SnapshotWarmHits, len(srcs), len(srcs))
	}

	// The counters surface on the cluster stats endpoint.
	var cs rolagdapi.CacheStats
	resp, err := http.Get(srv2.URL + "/v1/cachestats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.SnapshotLoads != 1 || cs.SnapshotEntries != int64(len(srcs)) || cs.SnapshotWarmHits != int64(len(srcs)) {
		t.Fatalf("cachestats loads=%d entries=%d warmHits=%d", cs.SnapshotLoads, cs.SnapshotEntries, cs.SnapshotWarmHits)
	}
}

func TestDaemonSnapshotEndpoint(t *testing.T) {
	path := t.TempDir() + "/shard.snapshot"
	_, srv := snapshotDaemon(t, path)
	compileSources(t, srv, []string{"int h(int x) { return x + 1; }"})

	resp, err := http.Post(srv.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Entries int    `json:"entries"`
		Path    string `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Entries != 1 || out.Path != path {
		t.Fatalf("forced save: %+v", out)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot file missing after forced save: %v", err)
	}

	// Without a snapshot path the endpoint refuses cleanly.
	_, plain := newTestDaemon(t, service.Config{}, time.Second)
	presp, err := http.Post(plain.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unconfigured daemon: status %d, want 501", presp.StatusCode)
	}
}

// TestDaemonRejectsTamperedSnapshot damages the saved file — a flipped
// bit, or a header stamped with the previous cache-key version (v3,
// whose entries hold assembly in the old format) — and pins the
// cold-but-alive restart: rejected counter up, no entries, daemon
// serving, and the rejected series visible on /metrics.
func TestDaemonRejectsTamperedSnapshot(t *testing.T) {
	damages := map[string]func(t *testing.T, raw []byte) []byte{
		"bit-flip": func(t *testing.T, raw []byte) []byte {
			raw[len(raw)/2] ^= 0x20
			return raw
		},
		"previous-cache-key-version": func(t *testing.T, raw []byte) []byte {
			hdr, rest, _ := strings.Cut(string(raw), "\n")
			var h map[string]any
			if err := json.Unmarshal([]byte(hdr), &h); err != nil {
				t.Fatal(err)
			}
			h["cacheKey"] = "v3"
			nh, err := json.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			return []byte(string(nh) + "\n" + rest)
		},
	}
	for name, damage := range damages {
		t.Run(name, func(t *testing.T) {
			path := t.TempDir() + "/shard.snapshot"
			d1, srv1 := snapshotDaemon(t, path)
			compileSources(t, srv1, []string{"int h(int x) { return x + 2; }"})
			if err := d1.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(t, raw), 0o644); err != nil {
				t.Fatal(err)
			}

			d2, srv2 := snapshotDaemon(t, path)
			defer d2.Close(context.Background())
			m := d2.Engine().Metrics()
			if m.SnapshotRejected != 1 || m.SnapshotEntries != 0 || m.CacheEntries != 0 {
				t.Fatalf("rejected=%d entries=%d cache=%d, want 1/0/0",
					m.SnapshotRejected, m.SnapshotEntries, m.CacheEntries)
			}
			out := compileSources(t, srv2, []string{"int h(int x) { return x + 2; }"})
			if out[0].CacheHit {
				t.Fatal("cache hit on what must be a cold start")
			}

			mresp, err := http.Get(srv2.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer mresp.Body.Close()
			text, err := io.ReadAll(mresp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(text), "rolagd_snapshot_rejected_total 1") {
				t.Fatal("rolagd_snapshot_rejected_total not exported")
			}
		})
	}
}
