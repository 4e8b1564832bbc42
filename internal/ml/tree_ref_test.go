package ml

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// refTree is the straightforward CART search: at every node it sorts each
// candidate feature's values afresh and rescans the node once per candidate
// threshold. DecisionTree and RandomForest must grow exactly its trees.
type refTree struct {
	MaxDepth, MinLeaf, MaxThresholds int
	Features                         []int
}

func (t *refTree) fit(X [][]float64, y []int) *treeNode {
	if t.MaxDepth == 0 {
		t.MaxDepth = 6
	}
	if t.MinLeaf == 0 {
		t.MinLeaf = 2
	}
	if t.MaxThresholds <= 0 {
		t.MaxThresholds = 32
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	return t.build(X, y, idx, 0)
}

func refGini(y []int, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	p := float64(ones) / float64(len(idx))
	return 2 * p * (1 - p)
}

func refMajority(y []int, idx []int) int {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	if 2*ones >= len(idx) {
		return 1
	}
	return 0
}

func (t *refTree) build(X [][]float64, y []int, idx []int, depth int) *treeNode {
	node := &treeNode{leaf: true, class: refMajority(y, idx)}
	if depth >= t.MaxDepth || len(idx) < 2*t.MinLeaf || refGini(y, idx) == 0 {
		return node
	}
	features := t.Features
	if features == nil {
		features = make([]int, len(X[0]))
		for j := range features {
			features[j] = j
		}
	}
	bestGain := 1e-12
	bestFeature, bestThreshold := -1, 0.0
	parentImpurity := refGini(y, idx)
	for _, j := range features {
		for _, thr := range t.candidateThresholds(X, idx, j) {
			var lOnes, lN, rOnes, rN int
			for _, i := range idx {
				if X[i][j] <= thr {
					lN++
					lOnes += y[i]
				} else {
					rN++
					rOnes += y[i]
				}
			}
			if lN < t.MinLeaf || rN < t.MinLeaf {
				continue
			}
			pl := float64(lOnes) / float64(lN)
			pr := float64(rOnes) / float64(rN)
			impurity := (float64(lN)*2*pl*(1-pl) + float64(rN)*2*pr*(1-pr)) / float64(len(idx))
			if gain := parentImpurity - impurity; gain > bestGain {
				bestGain, bestFeature, bestThreshold = gain, j, thr
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	node.leaf = false
	node.feature = bestFeature
	node.threshold = bestThreshold
	node.left = t.build(X, y, li, depth+1)
	node.right = t.build(X, y, ri, depth+1)
	return node
}

// candidateThresholds returns the midpoints between consecutive distinct
// sorted values of feature j at idx, subsampled to MaxThresholds by quantile
// (the middle midpoint when MaxThresholds is 1).
func (t *refTree) candidateThresholds(X [][]float64, idx []int, j int) []float64 {
	vals := make([]float64, 0, len(idx))
	for _, i := range idx {
		vals = append(vals, X[i][j])
	}
	sort.Float64s(vals)
	var mids []float64
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			mids = append(mids, (vals[i]+vals[i-1])/2)
		}
	}
	if len(mids) <= t.MaxThresholds {
		return mids
	}
	if t.MaxThresholds == 1 {
		return []float64{mids[(len(mids)-1)/2]}
	}
	out := make([]float64, t.MaxThresholds)
	for k := 0; k < t.MaxThresholds; k++ {
		out[k] = mids[k*(len(mids)-1)/(t.MaxThresholds-1)]
	}
	return out
}

// refForest replays RandomForest.Fit's bootstrap loop, growing each tree
// with refTree on a materialised bootstrap matrix.
func refForest(f RandomForest, X [][]float64, y []int) []*treeNode {
	if f.Trees <= 0 {
		f.Trees = 20
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 6
	}
	if len(X) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	n, d := len(X), len(X[0])
	mtry := f.MTry
	if mtry <= 0 {
		mtry = intSqrt(d)
	}
	mtry = max(1, min(mtry, d))
	var roots []*treeNode
	for b := 0; b < f.Trees; b++ {
		bi := make([]int, n)
		for i := range bi {
			bi[i] = rng.Intn(n)
		}
		bx := make([][]float64, n)
		by := make([]int, n)
		for i, src := range bi {
			bx[i] = X[src]
			by[i] = y[src]
		}
		tree := &refTree{MaxDepth: f.MaxDepth, Features: rng.Perm(d)[:mtry]}
		roots = append(roots, tree.fit(bx, by))
	}
	return roots
}

// sameTree reports the first node at which got and want differ: in shape,
// leaf class, split feature, or the bits of the split threshold.
func sameTree(got, want *treeNode, path string) (string, bool) {
	switch {
	case got == nil || want == nil:
		if got != want {
			return path + ": one tree is missing the node", false
		}
		return "", true
	case got.leaf != want.leaf || got.class != want.class:
		return path + ": leaf/class differ", false
	case got.leaf:
		return "", true
	case got.feature != want.feature || math.Float64bits(got.threshold) != math.Float64bits(want.threshold):
		return path + ": split differs", false
	}
	if msg, ok := sameTree(got.left, want.left, path+"L"); !ok {
		return msg, false
	}
	return sameTree(got.right, want.right, path+"R")
}

// specialValues are the inputs most likely to expose an ordering or
// arithmetic difference between the presorted sweep and the reference:
// NaN, infinities, signed zeros, subnormals, and pairs whose midpoint
// overflows to ±Inf.
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e308, 1.5e308, -1e308, -1.5e308, math.MaxFloat64, -math.MaxFloat64,
	5e-324, -5e-324, 1e-320, 1, -1,
}

// randomMatrix draws an n×d matrix mixing column shapes: continuous,
// few-valued (many duplicates), 0/1 one-hot, and columns laced with
// specialValues. Labels follow one column with noise, or are constant.
func randomMatrix(rng *rand.Rand, n, d int) ([][]float64, []int) {
	kinds := make([]int, d)
	for j := range kinds {
		kinds[j] = rng.Intn(4)
	}
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j, k := range kinds {
			switch k {
			case 0:
				X[i][j] = rng.NormFloat64()
			case 1:
				X[i][j] = float64(rng.Intn(5))
			case 2:
				X[i][j] = float64(rng.Intn(2))
			default:
				if rng.Intn(3) == 0 {
					X[i][j] = specialValues[rng.Intn(len(specialValues))]
				} else {
					X[i][j] = float64(rng.Intn(7)) - 3
				}
			}
		}
	}
	y := make([]int, n)
	constant := rng.Intn(8) == 0
	for i := range y {
		switch {
		case constant:
			y[i] = 1
		case d > 0 && X[i][0] > 0.5:
			y[i] = 1
		}
		if !constant && rng.Intn(5) == 0 {
			y[i] = 1 - y[i]
		}
	}
	return X, y
}

func TestDecisionTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 3000; c++ {
		n, d := rng.Intn(120), 1+rng.Intn(6)
		X, y := randomMatrix(rng, n, d)
		tree := &DecisionTree{
			MaxDepth:      rng.Intn(11) - 1,
			MinLeaf:       rng.Intn(7) - 1,
			MaxThresholds: rng.Intn(44) - 3,
		}
		if rng.Intn(2) == 0 {
			tree.Features = rng.Perm(d)[:1+rng.Intn(d)]
		}
		ref := &refTree{MaxDepth: tree.MaxDepth, MinLeaf: tree.MinLeaf,
			MaxThresholds: tree.MaxThresholds, Features: tree.Features}
		want := ref.fit(X, y)
		tree.Fit(X, y)
		if msg, ok := sameTree(tree.root, want, "root"); !ok {
			t.Fatalf("case %d (n=%d d=%d depth=%d minLeaf=%d maxThr=%d features=%v): %s",
				c, n, d, ref.MaxDepth, ref.MinLeaf, ref.MaxThresholds, tree.Features, msg)
		}
	}
}

func TestRandomForestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < 300; c++ {
		n, d := rng.Intn(150), 1+rng.Intn(10)
		X, y := randomMatrix(rng, n, d)
		f := RandomForest{Trees: rng.Intn(7), MaxDepth: rng.Intn(9) - 1,
			MTry: rng.Intn(d+2) - 1, Seed: rng.Int63n(100)}
		want := refForest(f, X, y)
		f.Fit(X, y)
		if len(f.ensemble) != len(want) {
			t.Fatalf("case %d: %d trees, reference grew %d", c, len(f.ensemble), len(want))
		}
		for i, tree := range f.ensemble {
			if msg, ok := sameTree(tree.root, want[i], "root"); !ok {
				t.Fatalf("case %d tree %d (n=%d d=%d): %s", c, i, n, d, msg)
			}
		}
	}
}

// TestRandomForestSameAcrossProcs fits seeded forests with one and with
// four goroutines available and requires both to grow the reference
// forest, node for node, in ensemble order.
func TestRandomForestSameAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(13))
	for c := 0; c < 40; c++ {
		n, d := 1+rng.Intn(300), 1+rng.Intn(10)
		X, y := randomMatrix(rng, n, d)
		if c == 0 {
			n, d = 2000, 10
			X, y = incomeShaped(n, 5)
		}
		spec := RandomForest{Trees: 1 + rng.Intn(12), MaxDepth: 1 + rng.Intn(8), MTry: rng.Intn(d + 1), Seed: rng.Int63n(100)}
		want := refForest(spec, X, y)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			f := spec
			f.Fit(X, y)
			if len(f.ensemble) != len(want) {
				t.Fatalf("case %d GOMAXPROCS=%d: %d trees, reference grew %d", c, procs, len(f.ensemble), len(want))
			}
			for i, tree := range f.ensemble {
				if msg, ok := sameTree(tree.root, want[i], "root"); !ok {
					t.Fatalf("case %d GOMAXPROCS=%d tree %d (n=%d d=%d): %s", c, procs, i, n, d, msg)
				}
			}
		}
	}
}

// TestRandomForestConcurrentFits fits and scores forests on several
// goroutines at once, as concurrent oracle calls do, so that the race
// detector sees their tree goroutines share the buffer pool and each
// forest's presorted matrix; every forest must still be the reference's
// and PredictAll must agree with Predict row by row.
func TestRandomForestConcurrentFits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	X, y := incomeShaped(1200, 9)
	spec := RandomForest{Trees: 6, MaxDepth: 6, MTry: 4, Seed: 2}
	want := refForest(spec, X, y)
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := spec
			f.Fit(X, y)
			for i, tree := range f.ensemble {
				if msg, ok := sameTree(tree.root, want[i], "root"); !ok {
					t.Errorf("tree %d: %s", i, msg)
					return
				}
			}
			for i, p := range PredictAll(&f, X) {
				if p != f.Predict(X[i]) {
					t.Errorf("PredictAll row %d = %d, Predict says %d", i, p, f.Predict(X[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRandomForestTreesDefault: a tree count of zero or below takes the
// default 20 (a negative count used to fit an empty forest that voted
// class 1 for every row).
func TestRandomForestTreesDefault(t *testing.T) {
	X, y := xorData(200, 8)
	for _, tc := range []struct{ trees, want int }{
		{trees: -20, want: 20},
		{trees: -1, want: 20},
		{trees: 0, want: 20},
		{trees: 1, want: 1},
		{trees: 3, want: 3},
	} {
		f := &RandomForest{Trees: tc.trees, MaxDepth: 4, Seed: 3}
		f.Fit(X, y)
		if len(f.ensemble) != tc.want || f.Trees != tc.want {
			t.Fatalf("Trees=%d: fitted %d trees (Trees now %d), want %d", tc.trees, len(f.ensemble), f.Trees, tc.want)
		}
		want := refForest(RandomForest{Trees: tc.want, MaxDepth: 4, Seed: 3}, X, y)
		for i, tree := range f.ensemble {
			if msg, ok := sameTree(tree.root, want[i], "root"); !ok {
				t.Fatalf("Trees=%d tree %d: %s", tc.trees, i, msg)
			}
		}
	}
}

// FuzzFitMatchesReference decodes a matrix from bytes: the first byte picks
// the column count, then each row takes one byte per column and one label
// byte. Byte values below len(specialValues) select a special value; the
// rest map to a small grid with many duplicates.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 2, 0, 0, 3, 20, 1, 4, 21, 0, 0, 22, 1}, int8(5), int8(1), int8(4), int64(1))
	f.Add([]byte{1, 5, 1, 6, 0, 7, 1, 8, 0, 5, 1, 6, 0, 7, 1, 8, 0}, int8(4), int8(1), int8(2), int64(2))
	f.Add([]byte{1, 1, 1, 2, 0, 1, 0, 2, 1, 0, 1, 0, 0, 3, 1, 4, 0}, int8(3), int8(0), int8(1), int64(3))
	f.Add([]byte{3, 9, 10, 11, 1, 12, 13, 14, 0, 3, 4, 9, 1, 4, 3, 10, 0, 15, 0, 0, 1}, int8(6), int8(-1), int8(-2), int64(4))
	f.Add([]byte{2, 16, 17, 0, 18, 19, 1, 16, 0, 1, 17, 18, 0, 0, 0, 1}, int8(0), int8(2), int8(1), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, depth, minLeaf, maxThr int8, seed int64) {
		if len(data) == 0 || depth > 12 {
			return
		}
		d := 1 + int(data[0])%4
		data = data[1:]
		var X [][]float64
		var y []int
		for len(data) > d && len(X) < 200 {
			row := make([]float64, d)
			for j := range row {
				row[j] = byteValue(data[j])
			}
			X = append(X, row)
			y = append(y, int(data[d]&1))
			data = data[d+1:]
		}
		tree := &DecisionTree{MaxDepth: int(depth), MinLeaf: int(minLeaf), MaxThresholds: int(maxThr)}
		ref := &refTree{MaxDepth: int(depth), MinLeaf: int(minLeaf), MaxThresholds: int(maxThr)}
		want := ref.fit(X, y)
		tree.Fit(X, y)
		if msg, ok := sameTree(tree.root, want, "root"); !ok {
			t.Fatalf("tree: %s", msg)
		}
		forest := RandomForest{Trees: 3, MaxDepth: int(depth), Seed: seed}
		wantForest := refForest(forest, X, y)
		forest.Fit(X, y)
		for i, tr := range forest.ensemble {
			if msg, ok := sameTree(tr.root, wantForest[i], "root"); !ok {
				t.Fatalf("forest tree %d: %s", i, msg)
			}
		}
	})
}

func byteValue(b byte) float64 {
	if int(b) < len(specialValues) {
		return specialValues[b]
	}
	return float64(b%32)/4 - 4
}

// TestMaxThresholdsDegenerate pins the caps that used to panic: 1 divided
// by zero when picking quantiles, and a negative cap sized a slice
// negatively. A negative cap now takes the default, and a cap of 1 keeps
// only the middle midpoint.
func TestMaxThresholdsDegenerate(t *testing.T) {
	// One feature 0..9, class 1 from 7 up: midpoints 0.5..8.5, middle 4.5.
	var X [][]float64
	var y []int
	for v := 0; v < 10; v++ {
		X = append(X, []float64{float64(v)})
		y = append(y, btoi(v >= 7))
	}
	for _, tc := range []struct {
		maxThr int
		// root is the tree's root split threshold.
		root float64
	}{
		{maxThr: 1, root: 4.5},
		{maxThr: -1, root: 6.5},
		{maxThr: -32, root: 6.5},
	} {
		tree := &DecisionTree{MaxThresholds: tc.maxThr}
		tree.Fit(X, y)
		if tree.root.leaf || tree.root.threshold != tc.root {
			t.Errorf("DecisionTree MaxThresholds=%d: root %+v, want split at %g", tc.maxThr, *tree.root, tc.root)
		}
		want := (&refTree{MaxThresholds: tc.maxThr}).fit(X, y)
		if msg, ok := sameTree(tree.root, want, "root"); !ok {
			t.Errorf("DecisionTree MaxThresholds=%d: %s", tc.maxThr, msg)
		}

		a := &AdaBoost{Rounds: 1, MaxThresholds: tc.maxThr}
		a.Fit(X, y)
		if len(a.stumps) != 1 || a.stumps[0].threshold != tc.root {
			t.Errorf("AdaBoost MaxThresholds=%d: stumps %+v, want one at %g", tc.maxThr, a.stumps, tc.root)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
