package obsv_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/obsv"
	"smrseek/internal/stl"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServer(t *testing.T) {
	col := obsv.NewCollector()
	// Feed the collector a little traffic so the snapshot is non-trivial.
	col.OnOp(core.OpEvent{Kind: disk.Read, Fragments: make([]stl.Fragment, 3)})
	col.ObserveAccess(disk.Access{Kind: disk.Read, Extent: geom.Ext(100, 8), Seeked: true, Distance: -4096})

	srv, err := obsv.Serve("127.0.0.1:0", col, true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var snap obsv.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not a Snapshot: %v\n%s", err, body)
	}
	if snap.Ops != 1 || snap.Reads != 1 || snap.Seeks != 1 {
		t.Errorf("snapshot = %+v, want 1 op/read/seek", snap)
	}
	if snap.SeekDistance.Total != 1 || len(snap.SeekDistance.Buckets) != 1 {
		t.Errorf("seek histogram not served: %+v", snap.SeekDistance)
	}

	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "\"smrseek\"") {
		t.Errorf("/debug/vars status %d, smrseek var present=%v",
			code, strings.Contains(body, "\"smrseek\""))
	}

	if code, _ = get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d with pprof enabled", code)
	}

	// A second server (fresh collector, pprof off) must coexist: the
	// expvar var is process-global and re-pointed, not re-published.
	col2 := obsv.NewCollector()
	srv2, err := obsv.Serve("127.0.0.1:0", col2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if code, _ = get(t, fmt.Sprintf("http://%s/debug/pprof/", srv2.Addr())); code == http.StatusOK {
		t.Error("/debug/pprof/ served with pprof disabled")
	}
	if code, _ = get(t, fmt.Sprintf("http://%s/metrics", srv2.Addr())); code != http.StatusOK {
		t.Errorf("second server /metrics: status %d", code)
	}
}

func TestServeRegistryMultiVolume(t *testing.T) {
	reg := obsv.NewRegistry()
	a, b := obsv.NewCollector(), obsv.NewCollector()
	a.OnOp(core.OpEvent{Kind: disk.Read, Fragments: make([]stl.Fragment, 2)})
	b.OnOp(core.OpEvent{Kind: disk.Write})
	b.OnOp(core.OpEvent{Kind: disk.Write})
	for name, c := range map[string]*obsv.Collector{"a": a, "b": b} {
		if err := reg.Register(name, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register("a", obsv.NewCollector()); err == nil {
		t.Error("duplicate Register(a) succeeded, want error")
	}
	if err := reg.Register("c", nil); err == nil {
		t.Error("Register(nil collector) succeeded, want error")
	}

	srv, err := obsv.ServeRegistry("127.0.0.1:0", reg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// No selector: a name-keyed object holding every volume.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var all map[string]obsv.Snapshot
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatalf("/metrics is not a name-keyed object: %v\n%s", err, body)
	}
	if all["a"].Reads != 1 || all["b"].Writes != 2 {
		t.Errorf("aggregate metrics = %+v, want a:1 read, b:2 writes", all)
	}

	// ?volume= selects one collector's bare snapshot.
	code, body = get(t, base+"/metrics?volume=b")
	if code != http.StatusOK {
		t.Fatalf("/metrics?volume=b: status %d", code)
	}
	var snap obsv.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("per-volume metrics is not a Snapshot: %v\n%s", err, body)
	}
	if snap.Writes != 2 {
		t.Errorf("volume b snapshot = %+v, want 2 writes", snap)
	}

	if code, _ = get(t, base+"/metrics?volume=nope"); code != http.StatusNotFound {
		t.Errorf("/metrics?volume=nope: status %d, want 404", code)
	}

	code, body = get(t, base+"/volumes")
	if code != http.StatusOK {
		t.Fatalf("/volumes: status %d", code)
	}
	var names []string
	if err := json.Unmarshal([]byte(body), &names); err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("/volumes = %q (err %v), want [a b]", body, err)
	}
}
