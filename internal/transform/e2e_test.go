package transform

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// repoRoot locates the module root (two levels up from this package).
func repoRoot(t *testing.T) string {
	t.Helper()
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
}

// TestEndToEndCompileAndRun transforms a full annotated program, compiles it
// with the real Go toolchain inside this module (so the internal packages
// are importable), runs it, and checks the observable ordering — the
// compiler and runtime working together on the Section IV.A flow.
func TestEndToEndCompileAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	const prog = `package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pyjama"
)

var counter atomic.Int64

func step(name string) {
	fmt.Printf("step %d %s\n", counter.Add(1), name)
}

func main() {
	if _, err := pyjama.CreateWorker("worker", 2); err != nil {
		panic(err)
	}
	step("start")
	//#omp target virtual(worker) name_as(job)
	{
		step("offloaded")
	}
	//#omp wait(job)
	step("after-wait")

	total := 0
	//#omp parallel for num_threads(4) schedule(dynamic, 4)
	for i := 0; i < 100; i++ {
		_ = i
	}
	//#omp parallel num_threads(3)
	{
		//#omp critical(sum)
		{
			total++
		}
	}
	fmt.Println("total", total)
	//#omp target virtual(worker) await
	{
		step("awaited")
	}
	step("end")
}
`
	out, err := File([]byte(prog), "main.go", Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The leading underscore hides the directory from ./... patterns, so a
	// concurrent `go list repro/...` (cmd/ompvet's tests) never sees it.
	dir, err := os.MkdirTemp(repoRoot(t), "_pjc-e2e-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), out, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	stdout, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n--- output ---\n%s\n--- generated ---\n%s", err, stdout, out)
	}
	got := strings.TrimSpace(string(stdout))
	lines := strings.Split(got, "\n")
	want := []string{
		"step 1 start",
		"step 2 offloaded",
		"step 3 after-wait",
		"total 3",
		"step 4 awaited",
		"step 5 end",
	}
	if len(lines) != len(want) {
		t.Fatalf("output:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q\nfull output:\n%s", i, lines[i], want[i], got)
		}
	}
}

// TestAnnotatedExampleEquivalence runs examples/annotated both as-is
// (directives ignored — sequential semantics) and after pjc translation,
// asserting identical observable output: the paper's "adding directives
// does not influence the original correctness" at whole-program scale.
func TestAnnotatedExampleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	root := repoRoot(t)
	exDir := filepath.Join(root, "examples", "annotated")

	run := func(dir string) []string {
		cmd := exec.Command("go", "run", ".")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go run %s: %v\n%s", dir, err, out)
		}
		var kept []string
		for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if strings.Contains(l, "total") && strings.Contains(l, "in ") {
				// Timing varies; keep only the checksum part.
				l = strings.SplitN(l, " in ", 2)[0]
			}
			kept = append(kept, l)
		}
		return kept
	}

	seqOut := run(exDir)

	src, err := os.ReadFile(filepath.Join(exDir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	translated, err := File(src, "main.go", Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, "_pjc-annotated-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "main.go"), translated, 0o644); err != nil {
		t.Fatal(err)
	}
	pjOut := run(dir)

	if strings.Join(seqOut, "\n") != strings.Join(pjOut, "\n") {
		t.Fatalf("sequential and translated outputs differ:\n--- sequential ---\n%s\n--- translated ---\n%s",
			strings.Join(seqOut, "\n"), strings.Join(pjOut, "\n"))
	}
}

// TestPjcVetFlag runs the real pjc binary with -vet: a file carrying a
// clause conflict and a static self-wait must stop translation with a
// non-zero exit, and a clean file must translate as usual.
func TestPjcVetFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the go toolchain")
	}
	root := repoRoot(t)
	dir, err := os.MkdirTemp(root, "_pjc-vet-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	bad := filepath.Join(dir, "bad.go")
	const badSrc = `package main

func main() {
	//#omp target virtual(render) name_as(frame)
	{
		//#omp wait(frame)
	}
	//#omp target virtual(edt) nowait await
	{
	}
}
`
	if err := os.WriteFile(bad, []byte(badSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/pjc", "-vet", bad)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("pjc -vet accepted a file with vet findings:\n%s", out)
	}
	for _, want := range []string{
		"conflicting scheduling clauses",
		`scheduled on "render" itself`,
		"not translating",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("pjc -vet output missing %q:\n%s", want, out)
		}
	}

	good := filepath.Join(dir, "good.go")
	const goodSrc = `package main

func main() {
	//#omp target virtual(worker) name_as(job)
	{
		println("work")
	}
	//#omp wait(job)
}
`
	if err := os.WriteFile(good, []byte(goodSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command("go", "run", "./cmd/pjc", "-vet", good)
	cmd.Dir = root
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("pjc -vet rejected a clean file: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "pyjama.TargetBlock") {
		t.Fatalf("clean file was not translated:\n%s", out)
	}
}
