package rangeagg_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/dataset"
	"rangeagg/internal/engine"
	"rangeagg/internal/serve"
)

// TestSynserveEndToEnd drives the real binaries: it starts synserve on a
// loopback port, queries it over HTTP (single, batch, health), exports a
// served synopsis, and verifies the export with synquery — then shuts the
// server down gracefully with SIGINT and checks it drained.
func TestSynserveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()

	d, err := dataset.Zipf(dataset.ZipfConfig{N: 63, Alpha: 1.6, MaxCount: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "data.csv")
	df, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(df); err != nil {
		t.Fatal(err)
	}
	df.Close()

	cmd := exec.Command("go", "run", "./cmd/synserve",
		"-addr", "127.0.0.1:0", "-data", data, "-syn", "h:SAP1:20", "-debounce", "5ms")
	cmd.Dir = "."
	// go run re-execs the built binary; a process group lets the SIGINT
	// reach it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		_ = cmd.Wait()
	}()

	// The server announces its bound address on stderr.
	sc := bufio.NewScanner(stderr)
	var addr string
	var tail []string
	for sc.Scan() {
		line := sc.Text()
		tail = append(tail, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen line from synserve; stderr: %s", strings.Join(tail, "\n"))
	}
	base := "http://" + addr
	drain := make(chan string, 1)
	go func() { // keep reading so the child never blocks on stderr
		var rest []string
		for sc.Scan() {
			rest = append(rest, sc.Text())
		}
		drain <- strings.Join(rest, "\n")
	}()

	var health struct {
		Status   string   `json:"status"`
		Records  int64    `json:"records"`
		Synopses []string `json:"synopses"`
	}
	httpGetJSON(t, base+"/health", &health)
	if health.Status != "ok" || len(health.Synopses) != 1 || health.Synopses[0] != "h" {
		t.Fatalf("health = %+v", health)
	}

	var single struct {
		Value   float64 `json:"value"`
		Version int64   `json:"version"`
	}
	httpGetJSON(t, base+"/query?a=0&b=62", &single)
	if single.Value != float64(health.Records) {
		t.Fatalf("full-domain exact count %g, want %d", single.Value, health.Records)
	}

	batchReq, _ := json.Marshal(map[string]any{
		"synopsis": "h", "ranges": [][2]int{{0, 62}, {3, 40}, {10, 10}},
	})
	resp, err := http.Post(base+"/query/batch", "application/json", bytes.NewReader(batchReq))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Values  []float64 `json:"values"`
		Version int64     `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Values) != 3 {
		t.Fatalf("batch returned %d values", len(batch.Values))
	}

	// Export the served synopsis and cross-check it with synquery.
	resp, err = http.Get(base + "/synopsis?name=h")
	if err != nil {
		t.Fatal(err)
	}
	exported, err := os.Create(filepath.Join(dir, "syn.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exported.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	exported.Close()
	queryOut, _ := runCmd(t, "", "./cmd/synquery", "-syn", exported.Name(), "-data", data, "-q", "3:40")
	for _, want := range []string{"synopsis SAP1", "s[3,40]"} {
		if !strings.Contains(queryOut, want) {
			t.Errorf("synquery output missing %q:\n%s", want, queryOut)
		}
	}

	// Graceful shutdown: SIGINT must drain and announce completion.
	if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()
	select {
	case <-waitCh:
	case <-time.After(30 * time.Second):
		t.Fatal("synserve did not exit after SIGINT")
	}
	if rest := <-drain; !strings.Contains(rest, "shutdown complete") {
		t.Errorf("no graceful-shutdown line; stderr tail: %s", rest)
	}
}

func httpGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestServeHTTPSnapshotConsistencyUnderRebuildStorm is the torn-snapshot
// e2e check, run through the full HTTP stack under -race in CI: while the
// data is mutated and rebuilt continuously, every batch response — which
// mixes exact COUNT, exact SUM, and synopsis answers — must be internally
// consistent with a single data version, old or new, never a blend.
func TestServeHTTPSnapshotConsistencyUnderRebuildStorm(t *testing.T) {
	const domain = 64
	eng, err := engine.New("storm", domain)
	if err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		// One bucket per value: the histogram reproduces uniform data
		// exactly, so synopsis answers are version-checkable too.
		{Name: "h", Metric: engine.Count, Options: build.Options{Method: build.EquiWidth, BudgetWords: 2 * domain}},
	}
	srv, err := serve.New(eng, specs, serve.Config{Debounce: time.Millisecond, MaxLag: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(serve.NewHandler(srv, serve.NewMetrics()))
	defer ts.Close()

	ones := make([]int64, domain)
	for i := range ones {
		ones[i] = 1
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := srv.Load(ones); err != nil {
					t.Error(err)
					return
				}
				_ = srv.Rebuild()
			}
		}
	}()

	// Batches of width-4 exact counts plus the full-domain count: with
	// every value equal to k, answers must be 4k and 64k from the same k.
	// Eight passes over the domain make 129 ranges, past the serving
	// layer's fan-out threshold (128).
	ranges := [][2]int{{0, 63}}
	for pass := 0; pass < 8; pass++ {
		for a := 0; a < domain; a += 4 {
			ranges = append(ranges, [2]int{a, a + 3})
		}
	}
	check := func(kind string, values []float64) {
		k := values[0] / float64(domain)
		if k != float64(int64(k)) {
			t.Errorf("%s: non-integral k %g", kind, k)
		}
		for i, v := range values[1:] {
			if v != 4*k {
				t.Errorf("%s: torn batch: range %v saw %g with batch k=%g", kind, ranges[i+1], v, k)
			}
		}
	}

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 120; i++ {
				for _, syn := range []string{"", "h"} {
					raw, _ := json.Marshal(map[string]any{"synopsis": syn, "ranges": ranges})
					resp, err := http.Post(ts.URL+"/query/batch", "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					var batch struct {
						Values []float64 `json:"values"`
					}
					err = json.NewDecoder(resp.Body).Decode(&batch)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					kind := "exact"
					if syn != "" {
						kind = "synopsis"
					}
					check(fmt.Sprintf("%s #%d", kind, i), batch.Values)
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
