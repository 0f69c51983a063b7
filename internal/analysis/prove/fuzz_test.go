package prove_test

import (
	"fmt"
	"strings"
	"testing"

	"camus/internal/analysis/prove"
	"camus/internal/compiler"
	"camus/internal/subscription"
)

// byteReader drives the structured generator from fuzz input.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

var (
	fuzzIntRels  = []string{"==", "!=", "<", "<=", ">", ">="}
	fuzzStrRels  = []string{"==", "!=", "prefix"}
	fuzzIntConst = []int{0, 1, 60, 100, 1000}
	fuzzSyms     = []string{"GOOGL", "MSFT", "GO", "A"}
)

// genRules derives a small rule program from fuzz bytes: 1–4 rules,
// each 1–3 atoms over every field shape the language has (int ranges,
// exact strings, prefixes, negation, aggregates), mixed and/or.
func genRules(data []byte) string {
	r := &byteReader{data: data}
	var b strings.Builder
	nRules := 1 + int(r.next())%4
	for i := 0; i < nRules; i++ {
		nAtoms := 1 + int(r.next())%3
		var atoms []string
		for j := 0; j < nAtoms; j++ {
			switch r.next() % 6 {
			case 0:
				atoms = append(atoms, fmt.Sprintf("shares %s %d",
					fuzzIntRels[int(r.next())%len(fuzzIntRels)],
					fuzzIntConst[int(r.next())%len(fuzzIntConst)]))
			case 1:
				atoms = append(atoms, fmt.Sprintf("price %s %d",
					fuzzIntRels[int(r.next())%len(fuzzIntRels)],
					fuzzIntConst[int(r.next())%len(fuzzIntConst)]))
			case 2:
				atoms = append(atoms, "stock == "+fuzzSyms[int(r.next())%len(fuzzSyms)])
			case 3:
				atoms = append(atoms, fmt.Sprintf("name %s %s",
					fuzzStrRels[int(r.next())%len(fuzzStrRels)],
					fuzzSyms[int(r.next())%len(fuzzSyms)]))
			case 4:
				atoms = append(atoms, fmt.Sprintf("avg(price) %s %d",
					fuzzIntRels[int(r.next())%len(fuzzIntRels)],
					fuzzIntConst[int(r.next())%len(fuzzIntConst)]))
			default:
				atoms = append(atoms, fmt.Sprintf("not (shares %s %d)",
					fuzzIntRels[int(r.next())%len(fuzzIntRels)],
					fuzzIntConst[int(r.next())%len(fuzzIntConst)]))
			}
		}
		for j, a := range atoms {
			if j > 0 {
				if r.next()%3 == 0 {
					b.WriteString(" or ")
				} else {
					b.WriteString(" and ")
				}
			}
			b.WriteString(a)
		}
		fmt.Fprintf(&b, ": fwd(%d)\n", 1+int(r.next())%4)
	}
	return b.String()
}

// FuzzCompileProve is the compiler/prover differential fuzzer: any rule
// set that compiles must prove clean (a finding means either a
// miscompilation or a prover semantics gap — both are bugs). Seeds
// live in testdata/fuzz/FuzzCompileProve and run as plain tests in
// every `go test`; `make fuzz-smoke` mutates briefly, nightly CI runs
// the extended budget.
func FuzzCompileProve(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{1, 1, 0, 0, 2, 2, 0}, false)
	f.Add([]byte{3, 2, 4, 3, 1, 2, 1, 0, 5, 1, 2}, true)
	f.Add([]byte{2, 2, 2, 0, 3, 2, 1, 5, 0, 4, 1, 1, 2, 2, 0, 1}, true)
	f.Add([]byte{0, 1, 3, 0, 1, 4, 2, 2, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0}, false)
	// Two rule sets whose programs have two parts (compiler.Program.Parts).
	f.Add([]byte{0x16, 0x48, 0x99, 0xff, 0xfa, 0x16, 0xeb, 0x32, 0x96, 0xf3, 0x10, 0xe3, 0x2, 0x51, 0x23, 0x52, 0xa8, 0x64, 0xfd, 0x80,
		0x9b, 0xea, 0xab, 0x41, 0x69, 0x11, 0x30, 0x27, 0xc6, 0xcc, 0xca, 0x99, 0xa9, 0x2c, 0x6c, 0xe3, 0x5c, 0x30, 0xf9, 0x44}, true)
	f.Add([]byte{0xe3, 0x1e, 0x6, 0x14, 0xf9, 0xe8, 0x14, 0x8e, 0xf9, 0x1e, 0xf1, 0x74, 0xa1, 0xcc, 0x31, 0x7c, 0x7f, 0x41, 0x11, 0x61,
		0x51, 0x3c, 0xd4, 0x62, 0xc0, 0xf3, 0x8e, 0xb3, 0xff, 0xeb, 0xb, 0x6f, 0x1e, 0x6b, 0xd1, 0x72, 0xea, 0xff, 0x46, 0xf4}, false)
	f.Fuzz(func(t *testing.T, data []byte, lastHop bool) {
		src := genRules(data)
		sp := testSpec(t)
		rules, err := subscription.NewParser(sp).ParseRules(src)
		if err != nil {
			t.Skip() // generator can emit rejected shapes (e.g. negated prefix)
		}
		p, err := compiler.Compile(sp, rules, compiler.Options{LastHop: lastHop})
		if err != nil {
			t.Skip()
		}
		ir, err := p.ProveIR()
		if err != nil {
			t.Fatalf("ProveIR failed on compiled program:\n%s\n%v", src, err)
		}
		res, err := prove.Check(ir, rules, prove.Options{LastHop: lastHop, MaxPaths: 20000})
		if err != nil {
			t.Skip() // un-analyzable filter (DNF budget)
		}
		if res.Overflowed {
			t.Skip()
		}
		if len(res.Findings) > 0 {
			t.Fatalf("compiled program failed its proof\nrules:\n%s\nfindings: %+v", src, res.Findings)
		}
	})
}
