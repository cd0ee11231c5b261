package transform

import (
	"strings"
	"testing"
)

func xform(t *testing.T, src string) string {
	t.Helper()
	out, err := File([]byte(src), "test.go", Options{})
	if err != nil {
		t.Fatalf("File: %v", err)
	}
	return string(out)
}

func mustContain(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
}

func mustNotContain(t *testing.T, out string, bads ...string) {
	t.Helper()
	for _, b := range bads {
		if strings.Contains(out, b) {
			t.Fatalf("output still contains %q:\n%s", b, out)
		}
	}
}

const hdr = "package app\n\nfunc compute() {}\n\n"

func TestNoDirectivesUnchanged(t *testing.T) {
	src := "package app\n\n// ordinary comment\nfunc f() { compute() }\nfunc compute() {}\n"
	out := xform(t, src)
	if out != src {
		t.Fatalf("directive-free file was modified:\n%s", out)
	}
}

func TestTargetVirtualAwait(t *testing.T) {
	src := hdr + `func handler() {
	//#omp target virtual(worker) await
	{
		compute()
	}
	compute()
}
`
	out := xform(t, src)
	mustContain(t, out,
		`pyjama.TargetBlock("worker", pyjama.Await, "", func() {`,
		`"repro/internal/pyjama"`)
	mustNotContain(t, out, "#omp")
}

func TestTargetModes(t *testing.T) {
	cases := []struct{ dir, want string }{
		{"//#omp target virtual(worker)", `pyjama.Wait`},
		{"//#omp target virtual(worker) nowait", `pyjama.Nowait`},
		{"//#omp target virtual(worker) await", `pyjama.Await`},
		{"//#omp target virtual(worker) name_as(dl)", `pyjama.NameAs, "dl"`},
	}
	for _, c := range cases {
		src := hdr + "func h() {\n\t" + c.dir + "\n\t{\n\t\tcompute()\n\t}\n}\n"
		out := xform(t, src)
		mustContain(t, out, c.want)
	}
}

func TestTargetDeviceMapsToNamedTarget(t *testing.T) {
	src := hdr + `func h() {
	//#omp target device(0)
	{
		compute()
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.TargetBlock("device0", pyjama.Wait`)
}

func TestTargetIfClause(t *testing.T) {
	src := hdr + `func h(n int) {
	//#omp target virtual(worker) nowait if(n > 10)
	{
		compute()
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.TargetBlockIf(n > 10, "worker", pyjama.Nowait`)
}

func TestNestedTargetsSectionIVA(t *testing.T) {
	// The exact shape of the Section IV.A compilation example.
	src := hdr + `func onClick() {
	setText("Start Processing Task!")
	//#omp target virtual(worker) await
	{
		compute() // S1
		//#omp target virtual(edt) nowait
		{
			setText("half") // S2
		}
		compute() // S3
	}
	setText("Task finished") // S4
}
func setText(s string) {}
`
	out := xform(t, src)
	mustContain(t, out,
		`pyjama.TargetBlock("worker", pyjama.Await, "", func() {`,
		`pyjama.TargetBlock("edt", pyjama.Nowait, "", func() {`)
	// The nested block must be inside the outer closure.
	outer := strings.Index(out, `pyjama.TargetBlock("worker"`)
	inner := strings.Index(out, `pyjama.TargetBlock("edt"`)
	if !(outer >= 0 && inner > outer) {
		t.Fatalf("nesting order wrong:\n%s", out)
	}
	mustNotContain(t, out, "#omp")
}

func TestStandaloneWait(t *testing.T) {
	src := hdr + `func h() {
	//#omp target virtual(worker) name_as(a)
	{
		compute()
	}
	//#omp wait(a, b)
	compute()
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.WaitFor("a", "b")`)
}

func TestTrailingStandaloneWait(t *testing.T) {
	// A wait directive as the last thing in a block (no following stmt).
	src := hdr + `func h() {
	//#omp target virtual(worker) name_as(a)
	{
		compute()
	}
	//#omp wait(a)
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.WaitFor("a")`)
}

func TestParallelRegion(t *testing.T) {
	src := hdr + `func h() {
	//#omp parallel num_threads(4)
	{
		compute()
	}
}
`
	out := xform(t, src)
	mustContain(t, out,
		`omp.Parallel(4, func(__omp_tc *omp.Team) {`,
		`"repro/internal/omp"`)
}

func TestParallelWithIf(t *testing.T) {
	src := hdr + `func h(big bool) {
	//#omp parallel num_threads(8) if(big)
	{
		compute()
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `omp.Parallel(pyjama.TeamSize(big, 8), func(__omp_tc *omp.Team) {`)
}

func TestParallelFor(t *testing.T) {
	src := hdr + `func h(data []int) {
	//#omp parallel for num_threads(4) schedule(dynamic, 16)
	for i := 0; i < len(data); i++ {
		data[i]++
	}
}
`
	out := xform(t, src)
	mustContain(t, out,
		`omp.ParallelForSchedule(4, 0, len(data), omp.Dynamic, 16, func(i int) {`)
}

func TestParallelForLeq(t *testing.T) {
	src := hdr + `func h(n int) {
	//#omp parallel for
	for i := 1; i <= n; i++ {
		compute()
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `omp.ParallelForSchedule(0, 1, (n)+1, omp.Static, 0, func(i int) {`)
}

func TestForInsideParallel(t *testing.T) {
	src := hdr + `func h(data []int) {
	//#omp parallel num_threads(2)
	{
		//#omp for schedule(static) nowait
		for i := 0; i < len(data); i++ {
			data[i]++
		}
		//#omp barrier
		compute()
	}
}
`
	out := xform(t, src)
	mustContain(t, out,
		`__omp_tc.ForNowait(0, len(data), omp.Static, 0, func(i int) {`,
		`__omp_tc.Barrier()`)
}

func TestOrphanedWorksharingSerializes(t *testing.T) {
	src := hdr + `func h(data []int) {
	//#omp for
	for i := 0; i < len(data); i++ {
		data[i]++
	}
	//#omp barrier
	//#omp taskwait
	compute()
}
`
	out := xform(t, src)
	mustContain(t, out, "for i := 0; i < len(data); i++ {")
	mustNotContain(t, out, "__omp_tc", "#omp")
}

func TestOrphanedTaskInline(t *testing.T) {
	src := hdr + `func h() {
	//#omp task
	{
		compute()
	}
}
`
	out := xform(t, src)
	mustNotContain(t, out, "__omp_tc", "#omp")
	mustContain(t, out, "compute()")
}

func TestTaskAndTaskwaitInParallel(t *testing.T) {
	src := hdr + `func h() {
	//#omp parallel
	{
		//#omp task
		{
			compute()
		}
		//#omp taskwait
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `__omp_tc.Task(func() {`, `__omp_tc.Taskwait()`)
}

func TestSingleMasterCritical(t *testing.T) {
	src := hdr + `func h() {
	//#omp parallel
	{
		//#omp single
		{
			compute()
		}
		//#omp master
		{
			compute()
		}
		//#omp critical(update)
		{
			compute()
		}
		//#omp critical
		{
			compute()
		}
	}
}
`
	out := xform(t, src)
	mustContain(t, out,
		`__omp_tc.Single(func() {`,
		`__omp_tc.Master(func() {`,
		`omp.Critical("update", func() {`,
		`omp.Critical("unnamed", func() {`)
}

func TestSectionsInParallel(t *testing.T) {
	src := hdr + `func h() {
	//#omp parallel
	{
		//#omp sections
		{
			//#omp section
			{
				compute()
			}
			//#omp section
			{
				compute()
			}
		}
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `__omp_tc.Sections(`)
	if strings.Count(out, "func() {") < 2 { // one closure per section
		t.Fatalf("sections not expanded:\n%s", out)
	}
}

func TestOrphanedSectionsSequential(t *testing.T) {
	src := hdr + `func h() {
	//#omp sections
	{
		//#omp section
		{
			compute()
		}
		//#omp section
		{
			compute()
		}
	}
}
`
	out := xform(t, src)
	mustNotContain(t, out, "__omp_tc", "#omp")
	// Two section bodies plus the compute declaration in the header.
	if strings.Count(out, "compute()") != 3 {
		t.Fatalf("sections bodies lost:\n%s", out)
	}
}

func TestFirstprivateShadows(t *testing.T) {
	src := hdr + `func h() {
	x := 1
	//#omp target virtual(worker) nowait firstprivate(x)
	{
		_ = x
	}
	_ = x
}
`
	out := xform(t, src)
	mustContain(t, out, "x := x")
}

func TestDirectiveInsideFuncLit(t *testing.T) {
	src := hdr + `func h() {
	cb := func() {
		//#omp target virtual(worker) nowait
		{
			compute()
		}
	}
	cb()
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.TargetBlock("worker", pyjama.Nowait`)
}

func TestDirectiveInsideSwitchCase(t *testing.T) {
	src := hdr + `func h(k int) {
	switch k {
	case 1:
		//#omp target virtual(worker) nowait
		{
			compute()
		}
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.TargetBlock("worker"`)
}

func TestExistingImportReused(t *testing.T) {
	src := `package app

import "repro/internal/pyjama"

var _ = pyjama.Wait

func compute() {}

func h() {
	//#omp target virtual(worker) nowait
	{
		compute()
	}
}
`
	out := xform(t, src)
	if strings.Count(out, `"repro/internal/pyjama"`) != 1 {
		t.Fatalf("duplicate import:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"dangling block directive", hdr + "func h() {\n\t//#omp target virtual(w) nowait\n}\n"},
		{"target on non-block", hdr + "func h() {\n\t//#omp target virtual(w)\n\tcompute()\n}\n"},
		{"parallel for on non-loop", hdr + "func h() {\n\t//#omp parallel for\n\t{\n\t\tcompute()\n\t}\n}\n"},
		{"non-canonical loop", hdr + "func h(xs []int) {\n\t//#omp parallel for\n\tfor _, x := range xs {\n\t\t_ = x\n\t}\n}\n"},
		{"bad directive syntax", hdr + "func h() {\n\t//#omp target virtual(\n\t{\n\t}\n}\n"},
		{"section outside sections", hdr + "func h() {\n\t//#omp section\n\t{\n\t\tcompute()\n\t}\n}\n"},
		{"stray stmt in sections", hdr + "func h() {\n\t//#omp sections\n\t{\n\t\tcompute()\n\t}\n}\n"},
		{"reduction unsupported", hdr + "func h() {\n\t//#omp parallel reduction(+:x)\n\t{\n\t\tcompute()\n\t}\n}\n"},
		{"not go source", "not valid go"},
	}
	for _, c := range cases {
		if _, err := File([]byte(c.src), "bad.go", Options{}); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

// TestTrailingDirectiveBindsNothing: a directive sharing its line with code
// binds no statement, so pjc refuses it with directivelint's message instead
// of splicing a block into the middle of the line.
func TestTrailingDirectiveBindsNothing(t *testing.T) {
	src := hdr + "func h() {\n\tx := 0\n\tx++ //#omp target virtual(worker) nowait\n\t{\n\t\tcompute()\n\t}\n\t_ = x\n}\n"
	_, err := File([]byte(src), "trail.go", Options{})
	if err == nil || !strings.Contains(err.Error(), `trail.go:7: directive "target" shares its line with code`) {
		t.Fatalf("err = %v, want the shares-its-line refusal at line 7", err)
	}
}

// TestFirstUnboundDirectiveReported: with several directives that bind
// nothing, the error names the first in source order, every time.
func TestFirstUnboundDirectiveReported(t *testing.T) {
	src := hdr + "func h() {\n\t//#omp target virtual(w) nowait\n\n\t//#omp target virtual(w) await\n\n}\n"
	for i := 0; i < 20; i++ {
		_, err := File([]byte(src), "unbound.go", Options{})
		if err == nil || !strings.Contains(err.Error(), "unbound.go:6:") {
			t.Fatalf("run %d: err = %v, want the directive on line 6", i, err)
		}
	}
}

func TestOutputIsGofmted(t *testing.T) {
	src := hdr + `func h() {
	//#omp parallel num_threads(2)
	{
		//#omp for
		for i := 0; i < 10; i++ {
			compute()
		}
	}
}
`
	out := xform(t, src)
	// format.Source output is stable under re-formatting.
	out2 := xform(t, out)
	if out != out2 {
		t.Fatalf("output not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", out, out2)
	}
}

func TestDeviceMapClauseRejected(t *testing.T) {
	src := hdr + `func h(x []byte) {
	//#omp target device(0) map(tofrom: x)
	{
		compute()
	}
}
`
	if _, err := File([]byte(src), "dev.go", Options{}); err == nil ||
		!strings.Contains(err.Error(), "map clauses") {
		t.Fatalf("err = %v, want map-clause rejection", err)
	}
}

func TestBareTargetRejected(t *testing.T) {
	src := hdr + `func h() {
	//#omp target nowait
	{
		compute()
	}
}
`
	_, err := File([]byte(src), "bare.go", Options{})
	if err == nil || !strings.Contains(err.Error(),
		"bare.go:6: target needs virtual(name) or device(n): the runtime has no default target") {
		t.Fatalf("err = %v, want the bare-target refusal at line 6", err)
	}
}

func TestTargetDataRejectedWithGuidance(t *testing.T) {
	src := hdr + `func h(x []byte) {
	//#omp target data device(0) map(to: x)
	{
		compute()
	}
}
`
	if _, err := File([]byte(src), "td.go", Options{}); err == nil ||
		!strings.Contains(err.Error(), "internal/device") {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelSectionsCombined(t *testing.T) {
	src := hdr + `func h() {
	//#omp parallel sections num_threads(2)
	{
		//#omp section
		{
			compute()
		}
		//#omp section
		{
			compute()
		}
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `omp.ParallelSections(2,`)
	mustNotContain(t, out, "#omp", "__omp_tc")
}

func TestDirectiveInsideSelectCase(t *testing.T) {
	src := hdr + `func h(ch chan int) {
	select {
	case <-ch:
		//#omp target virtual(worker) nowait
		{
			compute()
		}
	default:
	}
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.TargetBlock("worker"`)
}

func TestDirectiveInsideMethodAndIfElse(t *testing.T) {
	src := `package app

func compute() {}

type svc struct{}

func (s *svc) handle(ok bool) {
	if ok {
		//#omp target virtual(worker) nowait
		{
			compute()
		}
	} else {
		//#omp target virtual(worker) await
		{
			compute()
		}
	}
}
`
	out := xform(t, src)
	mustContain(t, out, "pyjama.Nowait", "pyjama.Await")
	mustNotContain(t, out, "#omp")
}

func TestDirectiveInsideRangeLoopBody(t *testing.T) {
	src := hdr + `func h(xs []int) {
	for range xs {
		//#omp target virtual(worker) name_as(g)
		{
			compute()
		}
	}
	//#omp wait(g)
}
`
	out := xform(t, src)
	mustContain(t, out, `pyjama.NameAs, "g"`, `pyjama.WaitFor("g")`)
}
