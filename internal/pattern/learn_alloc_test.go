package pattern

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refLearn is Learn as first written — a fresh run slice per example and a
// map write per run — the reference the reused-buffer Learn must equal.
func refLearn(examples []string) *Pattern {
	p := &Pattern{Classes: make(map[Class]bool)}
	if len(examples) == 0 {
		p.Structured = true
		return p
	}
	p.MinLen = len([]rune(examples[0]))
	p.MaxLen = p.MinLen
	var shared []Run
	structured := true
	for i, ex := range examples {
		n := len([]rune(ex))
		p.MinLen, p.MaxLen = min(p.MinLen, n), max(p.MaxLen, n)
		runs := tokenize(ex)
		for _, r := range runs {
			p.Classes[r.Class] = true
		}
		if i == 0 {
			shared = runs
			continue
		}
		if !structured {
			continue
		}
		if len(runs) != len(shared) {
			structured = false
			continue
		}
		for j := range runs {
			if runs[j].Class != shared[j].Class {
				structured = false
				break
			}
			shared[j].Min = min(shared[j].Min, runs[j].Min)
			shared[j].Max = max(shared[j].Max, runs[j].Max)
			if runs[j].Literal != shared[j].Literal {
				shared[j].Literal = 0
			}
		}
	}
	p.Structured = structured
	if structured {
		p.Runs = shared
	}
	return p
}

// TestLearnMatchesReference: on random example sets — shared formats,
// formats that diverge part-way, empty strings and non-ASCII runes — Learn
// learns exactly the reference pattern, Classes included.
func TestLearnMatchesReference(t *testing.T) {
	alphabet := []rune("AZaz09 -_.é€")
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		format := make([]rune, rng.Intn(6))
		for i := range format {
			format[i] = alphabet[rng.Intn(len(alphabet))]
		}
		examples := make([]string, rng.Intn(12))
		for i := range examples {
			ex := append([]rune(nil), format...)
			if rng.Intn(4) == 0 && len(ex) > 0 {
				ex[rng.Intn(len(ex))] = alphabet[rng.Intn(len(alphabet))]
			}
			if rng.Intn(6) == 0 {
				ex = append(ex, alphabet[rng.Intn(len(alphabet))])
			}
			examples[i] = string(ex)
		}
		if got, want := Learn(examples), refLearn(examples); !reflect.DeepEqual(got, want) {
			t.Fatalf("Learn(%q) = %+v, reference %+v", examples, got, want)
		}
	}
}

// TestLearnAllocationsIndependentOfExamples: Learn tokenizes every example
// into one reused run buffer and collects classes without per-run map
// writes, so its allocations do not grow with the number of examples.
func TestLearnAllocationsIndependentOfExamples(t *testing.T) {
	plates := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%c%c-%03d", 'A'+i%26, 'A'+i%7, i%1000)
		}
		return out
	}
	small, large := plates(10), plates(5000)
	a := testing.AllocsPerRun(20, func() { Learn(small) })
	b := testing.AllocsPerRun(20, func() { Learn(large) })
	if b > a {
		t.Errorf("Learn allocates %v times over 5000 examples, %v over 10", b, a)
	}
}
