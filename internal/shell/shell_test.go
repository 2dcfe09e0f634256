package shell

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rangeagg/internal/dataset"
)

// run executes a script of newline-separated commands and returns the
// accumulated output; it fails the test on any command error.
func run(t *testing.T, script string) string {
	t.Helper()
	var buf bytes.Buffer
	sh := New(&buf)
	for _, line := range strings.Split(script, "\n") {
		quit, err := sh.Exec(line)
		if err != nil {
			t.Fatalf("command %q: %v", line, err)
		}
		if quit {
			break
		}
	}
	return buf.String()
}

// mustFail executes a single command on a fresh or prepared shell and
// asserts it errors.
func mustFail(t *testing.T, sh *Shell, line string) {
	t.Helper()
	if _, err := sh.Exec(line); err == nil {
		t.Errorf("command %q should fail", line)
	}
}

func TestEndToEndScript(t *testing.T) {
	out := run(t, `
# comments and blank lines are ignored
gen zipf 64 1.8 500 3
build h count A0 16
build s sum SAP0 18
describe h
count 0 63
sum 0 63
approx h 0 63
report h 50
sse h
list
drop s
autorefresh 10
insert 0 100
delete 0 50
quit
`)
	for _, want := range []string{
		"generated zipf(n=64",
		"built h: COUNT A0, 16 words",
		"built s: SUM SAP0, 18 words",
		"name=h metric=COUNT method=A0",
		"dropped",
		"auto-refresh threshold = 10",
		"ok (",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestApproxTracksExact(t *testing.T) {
	out := run(t, `
gen zipf 64 1.8 500 3
build h count OPT-A 24
count 0 63
approx h 0 63
`)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	exact := lines[len(lines)-2]
	approx := lines[len(lines)-1]
	if !strings.HasPrefix(approx, exact) {
		t.Errorf("full-domain approx %q should match exact %q", approx, exact)
	}
}

func TestLoadFromCSV(t *testing.T) {
	d, err := dataset.Zipf(dataset.ZipfConfig{N: 20, Alpha: 1.5, MaxCount: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "d.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := run(t, "load "+path+"\ncount 0 19")
	if !strings.Contains(out, "20 values") {
		t.Errorf("load output: %s", out)
	}
}

func TestRecommendCommand(t *testing.T) {
	out := run(t, `
gen zipf 48 1.8 300 3
recommend auto count 16
list
`)
	if !strings.Contains(out, "advisor picked") {
		t.Errorf("no advisor output:\n%s", out)
	}
	if !strings.Contains(out, "auto") {
		t.Errorf("winner not registered:\n%s", out)
	}
}

func TestBuildReoptOption(t *testing.T) {
	out := run(t, `
gen zipf 48 1.8 300 3
build r count EQUI-WIDTH 16 reopt
describe r
`)
	if !strings.Contains(out, "EQUI-WIDTH-reopt") {
		t.Errorf("reopt not applied:\n%s", out)
	}
}

func TestErrorsAreReported(t *testing.T) {
	var buf bytes.Buffer
	sh := New(&buf)
	mustFail(t, sh, "bogus")
	mustFail(t, sh, "count 0 3")    // no engine
	mustFail(t, sh, "create")       // missing arg
	mustFail(t, sh, "create x")     // bad number
	mustFail(t, sh, "gen zipf 1 2") // wrong arity
	if _, err := sh.Exec("create 16"); err != nil {
		t.Fatal(err)
	}
	mustFail(t, sh, "build h count NOPE 8")    // bad method
	mustFail(t, sh, "build h nope A0 8")       // bad metric
	mustFail(t, sh, "build h count A0 8 fast") // bad option
	mustFail(t, sh, "approx missing 0 3")      // unknown synopsis
	mustFail(t, sh, "drop missing")
	mustFail(t, sh, "insert 99 1") // out of domain
	mustFail(t, sh, "load /nonexistent/file.csv")
	mustFail(t, sh, "report missing 10")
	mustFail(t, sh, "sse missing")
	mustFail(t, sh, "autorefresh zz")
}

func TestHelpAndQuit(t *testing.T) {
	var buf bytes.Buffer
	sh := New(&buf)
	if quit, err := sh.Exec("help"); err != nil || quit {
		t.Fatalf("help: quit=%v err=%v", quit, err)
	}
	if !strings.Contains(buf.String(), "commands:") {
		t.Error("help output missing")
	}
	if quit, _ := sh.Exec("quit"); !quit {
		t.Error("quit did not quit")
	}
	if quit, _ := sh.Exec("exit"); !quit {
		t.Error("exit did not quit")
	}
}

func TestStoreCommands(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	out := run(t, `
gen zipf 32 1.5 200 1
build h count A0 12
create 16
insert 3 50
columns
use zipf1
describe h
save `+path+`
`)
	for _, want := range []string{
		"generated zipf(n=32, a=1.5) into column zipf1",
		"column col2 over [0,16)",
		"* col2",
		"  zipf1",
		"using column zipf1",
		"name=h",
		"saved 2 columns",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// A fresh shell restores the store and can query the rebuilt synopsis.
	out2 := run(t, "open "+path+"\ncolumns\nuse zipf1\napprox h 0 31")
	for _, want := range []string{"opened 2 columns", "zipf1"} {
		if !strings.Contains(out2, want) {
			t.Errorf("restore output missing %q:\n%s", want, out2)
		}
	}
}

func TestStoreCommandErrors(t *testing.T) {
	var buf bytes.Buffer
	sh := New(&buf)
	mustFail(t, sh, "use nope")
	mustFail(t, sh, "use")
	mustFail(t, sh, "save")
	mustFail(t, sh, "open /nonexistent/store.json")
	mustFail(t, sh, "save /nonexistent-dir/x.json")
	if _, err := sh.Exec("columns"); err != nil {
		t.Errorf("columns on empty store should succeed: %v", err)
	}
	if !strings.Contains(buf.String(), "(no columns)") {
		t.Error("empty-store message missing")
	}
}

func TestProgressiveCommand(t *testing.T) {
	out := run(t, `
gen zipf 32 1.5 200 1
build h count A0 8
progressive h 0 31 4
`)
	if !strings.Contains(out, "scanned   32/32") {
		t.Errorf("missing final exact step:\n%s", out)
	}
	// 2^40 chunks over 32 values answer like one chunk per value.
	script := "gen zipf 32 1.5 200 1\nbuild h count A0 8\nprogressive h 0 31 "
	if huge, perValue := run(t, script+"1099511627776"), run(t, script+"32"); huge != perValue {
		t.Errorf("2^40 chunks:\n%s\nwant the output of 32 chunks:\n%s", huge, perValue)
	} else if n := strings.Count(huge, "scanned"); n != 33 {
		t.Errorf("32 chunks gave %d steps, want 33", n)
	}
	var buf bytes.Buffer
	sh := New(&buf)
	mustFail(t, sh, "progressive h 0 3 2") // no engine
}
