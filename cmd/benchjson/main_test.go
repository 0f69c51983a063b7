package main

import (
	"bufio"
	"strings"
	"testing"
)

func mustParse(t *testing.T, out string) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(out)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGuard: the guard fails on allocs/op past the ratio, on any
// allocation against a zero-alloc baseline, on a missing benchmark, and
// on an entries, nodes or walkB/lookup metric other than the baseline's;
// the other metrics and ns/op move freely.
func TestGuard(t *testing.T) {
	baseline := mustParse(t, `
BenchmarkCompile-2   	1	 900 ns/op	 133677 entries	 1000 B/op	 100 allocs/op
BenchmarkSiena/a/100-2 	1	 900 ns/op	 176692 entries	 1.103 entries/node	 160211 nodes	 10 allocs/op
BenchmarkDecode-2    	1000	 9 ns/op	 0 B/op	 0 allocs/op
BenchmarkLookup/int-2 	100000	 95 ns/op	 213.9 walkB/lookup	 0 B/op	 0 allocs/op
`)
	for _, c := range []struct {
		name, run string
		fails     []string
	}{
		{"as recorded", `
BenchmarkCompile-2   	1	 500 ns/op	 42.6 engine-MB	 133677 entries	 900 B/op	 150 allocs/op
BenchmarkSiena/a/100-2 	1	 100 ns/op	 176692 entries	 1.2 entries/node	 160211 nodes	 19 allocs/op
BenchmarkDecode-2    	1000	 19 ns/op	 0 B/op	 0 allocs/op
BenchmarkLookup/int-2 	100000	 140 ns/op	 213.9 walkB/lookup	 0 B/op	 0 allocs/op
`, nil},
		{"moved", `
BenchmarkCompile-2   	1	 500 ns/op	 133678 entries	 900 B/op	 201 allocs/op
BenchmarkSiena/a/100-2 	1	 100 ns/op	 176692 entries	 160210 nodes	 10 allocs/op
BenchmarkDecode-2    	1000	 19 ns/op	 0 B/op	 1 allocs/op
BenchmarkLookup/int-2 	100000	 95 ns/op	 293.9 walkB/lookup	 0 B/op	 0 allocs/op
`, []string{
			"Compile: 201 allocs/op vs baseline 100 (> 2.0x)",
			"Compile: entries 133678 vs baseline 133677 (structure moved)",
			"Decode: 1 allocs/op vs zero-alloc baseline",
			"Lookup/int: walkB/lookup 293.9 vs baseline 213.9 (structure moved)",
			"Siena/a/100: nodes 160210 vs baseline 160211 (structure moved)",
		}},
		{"missing", `
BenchmarkSiena/a/100-2 	1	 100 ns/op	 176692 entries	 10 allocs/op
BenchmarkDecode-2    	1000	 19 ns/op	 0 B/op	 0 allocs/op
BenchmarkLookup/int-2 	100000	 95 ns/op	 213.9 walkB/lookup	 0 B/op	 0 allocs/op
`, []string{
			"Compile: present in baseline but missing from this run",
			"Siena/a/100: nodes missing vs baseline 160211 (structure moved)",
		}},
	} {
		got := guard(baseline, mustParse(t, c.run), 2)
		if strings.Join(got, "\n") != strings.Join(c.fails, "\n") {
			t.Errorf("%s: guard =\n%s\nwant\n%s", c.name, strings.Join(got, "\n"), strings.Join(c.fails, "\n"))
		}
	}
}
