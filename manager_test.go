package privehd_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"privehd"
)

// openManager opens a manager over dir with a fresh registry.
func openManager(t *testing.T, dir string, opts ...privehd.ManagerOption) (*privehd.Manager, *privehd.Registry) {
	t.Helper()
	reg := privehd.NewRegistry()
	m, err := privehd.OpenManager(dir, reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m, reg
}

func saveBytes(t *testing.T, p *privehd.Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestManagerPublishAndRestart(t *testing.T) {
	dir := t.TempDir()
	m, reg := openManager(t, dir)

	pa, _, _ := toyPipeline(t)
	if v, err := m.Publish("a", pa); err != nil || v != 1 {
		t.Fatalf("Publish a = v%d, %v", v, err)
	}
	Xi, yi := invertedToyData(40, 12)
	pa2 := trainPipeline(t, Xi, yi)
	if v, err := m.Publish("a", pa2); err != nil || v != 2 {
		t.Fatalf("Publish a again = v%d, %v", v, err)
	}
	pb, _, _ := toyPipeline(t)
	if v, err := m.Publish("b", pb); err != nil || v != 1 {
		t.Fatalf("Publish b = v%d, %v", v, err)
	}
	// First publication auto-defaulted, durably.
	if reg.DefaultName() != "a" {
		t.Fatalf("default after first publish = %q, want a", reg.DefaultName())
	}
	// Roll a back to v1 and move the default — the reopened registry must
	// reproduce both exactly.
	if v, err := m.Rollback("a"); err != nil || v != 1 {
		t.Fatalf("Rollback a = v%d, %v", v, err)
	}
	if err := m.SetDefault("b"); err != nil {
		t.Fatal(err)
	}

	m2, reg2 := openManager(t, dir)
	if reg2.DefaultName() != "b" {
		t.Fatalf("reopened default = %q, want b", reg2.DefaultName())
	}
	models := reg2.Models()
	if len(models) != 2 {
		t.Fatalf("reopened registry holds %d models", len(models))
	}
	if models[0].Name != "a" || models[0].Version != 1 {
		t.Fatalf("reopened a = %+v, want version 1 (the rollback)", models[0])
	}
	if models[1].Name != "b" || models[1].Version != 1 {
		t.Fatalf("reopened b = %+v", models[1])
	}
	// History survived: a has both versions, active 1.
	var aStatus bool
	for _, s := range m2.Status() {
		if s.Name == "a" {
			aStatus = true
			if s.ActiveVersion != 1 || len(s.Versions) != 2 || !s.Live {
				t.Fatalf("a status = %+v", s)
			}
		}
	}
	if !aStatus {
		t.Fatal("Status lists no model a")
	}
}

func TestManagerUploadRejectsCorruptBlobs(t *testing.T) {
	dir := t.TempDir()
	m, _ := openManager(t, dir)
	for _, blob := range [][]byte{nil, []byte("garbage"), bytes.Repeat([]byte{0x7f}, 512)} {
		if _, err := m.Upload("m", blob, true); !errors.Is(err, privehd.ErrCorruptModel) {
			t.Errorf("Upload(%d garbage bytes) = %v, want ErrCorruptModel", len(blob), err)
		}
	}
	// Nothing reached the store or the registry.
	if got := len(m.Status()); got != 0 {
		t.Fatalf("rejected uploads left %d models", got)
	}
	// A truncated real blob is rejected too.
	p, _, _ := toyPipeline(t)
	blob := saveBytes(t, p)
	if _, err := m.Upload("m", blob[:len(blob)/2], true); !errors.Is(err, privehd.ErrCorruptModel) {
		t.Fatalf("Upload(truncated) = %v, want ErrCorruptModel", err)
	}
}

func TestManagerStagedUploadThenActivate(t *testing.T) {
	dir := t.TempDir()
	m, reg := openManager(t, dir)
	p, _, _ := toyPipeline(t)
	v, err := m.Upload("m", saveBytes(t, p), false)
	if err != nil || v != 1 {
		t.Fatalf("staged Upload = v%d, %v", v, err)
	}
	if reg.Len() != 0 {
		t.Fatal("staged upload went live")
	}
	// Staged models survive a restart without going live.
	m, reg = openManager(t, dir)
	if reg.Len() != 0 {
		t.Fatal("staged upload went live after reopen")
	}
	if err := m.Activate("m", 1); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 || reg.Models()[0].Version != 1 {
		t.Fatalf("Activate did not publish: %+v", reg.Models())
	}
	if reg.DefaultName() != "m" {
		t.Fatalf("first activation default = %q, want m", reg.DefaultName())
	}
}

func TestManagerDeregister(t *testing.T) {
	dir := t.TempDir()
	m, reg := openManager(t, dir)
	p, _, _ := toyPipeline(t)
	if _, err := m.Publish("m", p); err != nil {
		t.Fatal(err)
	}
	if err := m.Deregister("m"); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 || len(m.Status()) != 0 {
		t.Fatal("Deregister left the model somewhere")
	}
	if _, reg2 := openManager(t, dir); reg2.Len() != 0 {
		t.Fatal("Deregister did not survive reopen")
	}
	if err := m.Deregister("m"); !errors.Is(err, privehd.ErrUnknownModel) {
		t.Fatalf("double Deregister = %v, want ErrUnknownModel", err)
	}
}

func TestManagerBadNames(t *testing.T) {
	m, _ := openManager(t, t.TempDir())
	p, _, _ := toyPipeline(t)
	if _, err := m.Publish("../evil", p); !errors.Is(err, privehd.ErrBadModelName) {
		t.Fatalf("Publish(../evil) = %v, want ErrBadModelName", err)
	}
	if _, err := m.Rollback("ghost"); !errors.Is(err, privehd.ErrUnknownModel) {
		t.Fatalf("Rollback(ghost) = %v, want ErrUnknownModel", err)
	}
	if err := m.Activate("ghost", 1); !errors.Is(err, privehd.ErrUnknownModel) {
		t.Fatalf("Activate(ghost) = %v, want ErrUnknownModel", err)
	}
}

// adminClient is a minimal authenticated HTTP client for the admin API.
type adminClient struct {
	base  string
	token string
}

func (c adminClient) do(t *testing.T, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestManagementPlaneEndToEnd is the acceptance scenario: a serving
// deployment with a durable store takes an admin upload of v2, serves it,
// restarts into the same state, then rolls back to v1 over the admin API
// while live traffic flows — without dropping a single request.
func TestManagementPlaneEndToEnd(t *testing.T) {
	dir := t.TempDir()
	const token = "e2e-token"

	// --- Boot 1: publish v1, start data + admin planes. ---
	m, reg := openManager(t, dir)
	p1, X, y := toyPipeline(t)
	if v, err := m.Publish("toy", p1); err != nil || v != 1 {
		t.Fatalf("Publish = v%d, %v", v, err)
	}

	ctx, stopServers := context.WithCancel(context.Background())
	dataLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := privehd.NewRegistryServer(reg)
	serveDone := make(chan error, 2)
	go func() { serveDone <- srv.Serve(ctx, dataLis) }()
	go func() { serveDone <- privehd.ServeAdmin(ctx, adminLis, m, token) }()
	admin := adminClient{base: "http://" + adminLis.Addr().String(), token: token}

	// Unauthenticated requests bounce.
	req, _ := http.NewRequest("GET", admin.base+"/v1/models", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("unauthenticated list → %d, want 401", resp.StatusCode)
		}
	}

	// Upload v2 (labels inverted, so the active version is observable from
	// predictions) over the admin API and serve queries against it.
	Xi, yi := invertedToyData(40, 12)
	p2 := trainPipeline(t, Xi, yi)
	code, body := admin.do(t, "POST", "/v1/models/toy/versions", saveBytes(t, p2))
	if code != http.StatusCreated {
		t.Fatalf("upload v2 → %d: %s", code, body)
	}
	edge, err := p1.Edge()
	if err != nil {
		t.Fatal(err)
	}
	remote := dial2(t, dataLis.Addr().String(), edge)
	if v := servedVersion(t, remote); v != 2 {
		t.Fatalf("server lists toy v%d after upload, want 2", v)
	}
	if label, _, err := remote.Predict(X[0]); err != nil || label != 1-y[0] {
		t.Fatalf("v2 predicts %d, %v; want inverted label %d", label, err, 1-y[0])
	}
	remote.Close()

	// --- Restart: same active version, default and history. ---
	stopServers()
	for i := 0; i < 2; i++ {
		select {
		case err := <-serveDone:
			if err != nil {
				t.Fatalf("server exit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("servers did not stop")
		}
	}

	m2, reg2 := openManager(t, dir)
	if reg2.DefaultName() != "toy" {
		t.Fatalf("restart default = %q", reg2.DefaultName())
	}
	if ms := reg2.Models(); len(ms) != 1 || ms[0].Version != 2 {
		t.Fatalf("restart registry = %+v, want toy v2", ms)
	}
	status := m2.Status()
	if len(status) != 1 || status[0].ActiveVersion != 2 || len(status[0].Versions) != 2 {
		t.Fatalf("restart status = %+v", status)
	}

	ctx2, stop2 := context.WithCancel(context.Background())
	defer stop2()
	dataLis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminLis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := privehd.NewRegistryServer(reg2)
	go func() { srv2.Serve(ctx2, dataLis2) }()
	go func() { privehd.ServeAdmin(ctx2, adminLis2, m2, token) }()
	admin2 := adminClient{base: "http://" + adminLis2.Addr().String(), token: token}

	// --- Authenticated rollback under live traffic. ---
	// Hammer the server from several connections; every Predict must
	// succeed before, during and after the rollback.
	var (
		wg      sync.WaitGroup
		stopTrf = make(chan struct{})
		trfErr  = make(chan error, 4)
	)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := dialEdge(dataLis2.Addr().String(), "toy", edge)
			if err != nil {
				trfErr <- err
				return
			}
			defer r.Close()
			for j := 0; ; j++ {
				select {
				case <-stopTrf:
					return
				default:
				}
				if _, _, err := r.Predict(X[j%len(X)]); err != nil {
					trfErr <- fmt.Errorf("in-flight Predict failed: %w", err)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let traffic flow
	code, body = admin2.do(t, "POST", "/v1/models/toy/rollback", nil)
	if code != http.StatusOK {
		t.Fatalf("rollback → %d: %s", code, body)
	}
	time.Sleep(50 * time.Millisecond) // traffic across the swap
	close(stopTrf)
	wg.Wait()
	select {
	case err := <-trfErr:
		t.Fatalf("traffic dropped during rollback: %v", err)
	default:
	}

	// New connections see v1 again — original labels.
	r2 := dial2(t, dataLis2.Addr().String(), edge)
	defer r2.Close()
	if v := servedVersion(t, r2); v != 1 {
		t.Fatalf("server lists toy v%d after rollback, want 1", v)
	}
	if label, _, err := r2.Predict(X[0]); err != nil || label != y[0] {
		t.Fatalf("post-rollback predicts %d, %v; want original label %d", label, err, y[0])
	}

	// The rollback is durable: the manifest on disk records active v1.
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"active": 1`)) {
		t.Fatalf("manifest does not record the rollback:\n%s", raw)
	}
}

// dial2 dials a connection to model "toy" or fails the test.
func dial2(t *testing.T, addr string, edge *privehd.Edge) privehd.Client {
	t.Helper()
	r, err := dialEdge(addr, "toy", edge)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// servedVersion returns the version of model "toy" the server lists.
func servedVersion(t *testing.T, c privehd.Client) int {
	t.Helper()
	models, err := c.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		if m.Name == "toy" {
			return m.Version
		}
	}
	t.Fatalf("server lists no toy model: %+v", models)
	return 0
}
