package ml

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// DecisionTree is a CART binary classifier: axis-aligned threshold splits
// chosen by Gini impurity.
type DecisionTree struct {
	// MaxDepth bounds the tree depth (default 6).
	MaxDepth int
	// MinLeaf is the smallest sample count at which a node may still split
	// (default 2).
	MinLeaf int
	// MaxThresholds caps the candidate split thresholds per feature; values
	// beyond the cap are subsampled by quantile, and a cap of 1 keeps the
	// middle one (default 32, also taken by a negative cap).
	MaxThresholds int
	// Features optionally restricts splits to a feature subset (used by
	// random forests); nil means all features.
	Features []int

	root *treeNode
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	leaf      bool
	class     int
}

func (t *DecisionTree) fillDefaults() {
	if t.MaxDepth == 0 {
		t.MaxDepth = 6
	}
	if t.MinLeaf == 0 {
		t.MinLeaf = 2
	}
	if t.MaxThresholds <= 0 {
		t.MaxThresholds = 32
	}
}

// Fit trains the tree on a feature matrix and binary labels.
func (t *DecisionTree) Fit(X [][]float64, y []int) {
	t.fillDefaults()
	m := newPresorted(X, y)
	m.sortFeatures(t.Features)
	g := newGrower(m)
	t.root = g.grow(t, nil)
	g.release()
}

// gini returns the Gini impurity of n labels of which ones are class 1.
func gini(ones, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(ones) / float64(n)
	return 2 * p * (1 - p)
}

// majority returns the majority class of n labels of which ones are class 1
// (ties → class 1).
func majority(ones, n int) int {
	if 2*ones >= n {
		return 1
	}
	return 0
}

// keptThreshold returns the index, among n ascending candidate midpoints, of
// the k-th of the min(n, limit) thresholds a split search tries: every
// midpoint when n ≤ limit, else quantile-spaced ones, and the middle one
// when limit is 1.
func keptThreshold(k, n, limit int) int {
	switch {
	case n <= limit:
		return k
	case limit == 1:
		return (n - 1) / 2
	}
	return k * (n - 1) / (limit - 1)
}

// presorted is a training matrix with some of its features sorted once, so
// a forest sorts a feature once per fit rather than at every node of every
// tree. A fit sorts the features a tree uses before growing it; growing
// only reads a presorted matrix, so trees on other goroutines can share it.
type presorted struct {
	X [][]float64
	y []int
	// cols[j][r] is X[r][j], and sorted[j] holds rows 0..n-1 in ascending
	// order of it, NaN first as sort.Float64s orders them. Both stay nil
	// until sortFeatures is given feature j.
	cols   [][]float64
	sorted [][]int
}

func newPresorted(X [][]float64, y []int) *presorted {
	m := &presorted{X: X, y: y}
	if len(X) > 0 {
		m.sorted = make([][]int, len(X[0]))
		m.cols = make([][]float64, len(X[0]))
	}
	return m
}

// allFeatures returns 0..d-1 for a matrix of d features.
func (m *presorted) allFeatures() []int {
	features := make([]int, len(m.sorted))
	for j := range features {
		features[j] = j
	}
	return features
}

// sortFeatures sorts each of features, or of all features when it is nil,
// that is not sorted yet.
func (m *presorted) sortFeatures(features []int) {
	if len(m.X) == 0 {
		return // grow reads no feature of an empty matrix
	}
	if features == nil {
		features = m.allFeatures()
	}
	for _, j := range features {
		if m.sorted[j] != nil {
			continue
		}
		m.cols[j] = make([]float64, len(m.X))
		for r, x := range m.X {
			m.cols[j][r] = x[j]
		}
		m.sorted[j] = sortedRows(m.cols[j])
	}
}

// sortedRows returns the rows of col in ascending order of value, NaN
// first.
func sortedRows(col []float64) []int {
	rows := make([]int, len(col))
	for r := range rows {
		rows[r] = r
	}
	slices.SortFunc(rows, func(a, b int) int { return cmp.Compare(col[a], col[b]) })
	return rows
}

// intBufs recycles the row-sized []int buffers of a fit (bootstrap counts,
// a tree's per-feature lists, partition scratch) across fits: every oracle
// call of a case study fits a model of the same shape again.
var intBufs sync.Pool

// getInts returns an []int of length n with arbitrary contents.
func getInts(n int) []int {
	if p, ok := intBufs.Get().(*[]int); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int, n)
}

func putInts(s []int) { intBufs.Put(&s) }

// grower grows CART trees on a presorted matrix, one tree at a time. A
// tree's node owns one range of positions in every one of its per-feature
// lists; each list holds the node's rows in ascending order of that
// feature, so a split search is one sweep per feature and a split is a
// stable partition of each list. The buffers are sized for one tree and
// reused by the next; each goroutine growing trees has its own grower.
type grower struct {
	*presorted
	t        *DecisionTree
	features []int
	// lists[f] holds the tree's rows, once per bootstrap draw, in
	// ascending order of feature features[f].
	lists   [][]int
	goLeft  []int // by row: 1 if the split being applied sends it left, else 0
	scratch []int
	mids    []float64
}

func newGrower(m *presorted) *grower {
	return &grower{presorted: m, goLeft: getInts(len(m.X)), scratch: getInts(len(m.X))}
}

// release hands the grower's row buffers back for the next fit.
func (g *grower) release() {
	putInts(g.goLeft)
	putInts(g.scratch)
	for _, list := range g.lists {
		putInts(list)
	}
}

// grow fits t, whose defaults are filled and whose features are sorted, on
// the rows of g.X drawn counts[r] times each (every row once when counts is
// nil) and returns its root.
func (g *grower) grow(t *DecisionTree, counts []int) *treeNode {
	g.t, g.features = t, t.Features
	if g.features == nil {
		g.features = g.allFeatures()
	}
	for len(g.lists) < len(g.features) {
		g.lists = append(g.lists, getInts(len(g.X))[:0])
	}
	n, ones := 0, 0
	for r := range g.X {
		c := 1
		if counts != nil {
			c = counts[r]
		}
		n += c
		ones += c * g.y[r]
	}
	if n == 0 {
		return g.build(0, 0, 0, 0) // a leaf, before any feature is read
	}
	for f, j := range g.features {
		list := g.lists[f][:0]
		for _, r := range g.sorted[j] {
			c := 1
			if counts != nil {
				c = counts[r]
			}
			for ; c > 0; c-- {
				list = append(list, r)
			}
		}
		g.lists[f] = list
	}
	return g.build(0, n, ones, 0)
}

// build grows the subtree over list positions [lo, hi), which hold ones
// class-1 rows.
func (g *grower) build(lo, hi, ones, depth int) *treeNode {
	n := hi - lo
	node := &treeNode{leaf: true, class: majority(ones, n)}
	impurity := gini(ones, n)
	if depth >= g.t.MaxDepth || n < 2*g.t.MinLeaf || impurity == 0 {
		return node
	}
	f, threshold := g.bestSplit(lo, hi, ones, impurity)
	if f < 0 {
		return node
	}
	mid, leftOnes := g.partition(lo, hi, f, threshold)
	node.leaf = false
	node.feature = g.features[f]
	node.threshold = threshold
	node.left = g.build(lo, mid, leftOnes, depth+1)
	node.right = g.build(mid, hi, ones-leftOnes, depth+1)
	return node
}

// bestSplit returns the list index f and threshold of the split with the
// largest Gini gain over parent at the node [lo, hi), or f = -1 if none
// gains more than 1e-12. The candidates are the midpoints between
// consecutive distinct values, thinned by keptThreshold. Features and
// thresholds are tried in order and only a strictly larger gain wins, so
// ties go to the first.
func (g *grower) bestSplit(lo, hi, ones int, parent float64) (best int, threshold float64) {
	n := hi - lo
	best = -1
	bestGain := 1e-12
	for f, j := range g.features {
		list, col := g.lists[f][lo:hi], g.cols[j]
		mids := g.mids[:0]
		prev := col[list[0]]
		for _, r := range list[1:] {
			v := col[r]
			if v != prev {
				mids = append(mids, (v+prev)/2)
			}
			prev = v
		}
		g.mids = mids
		// NaN values sort first and compare false with every threshold, so
		// the left side starts after them. p only moves forward: midpoints
		// of ascending values never decrease, even where they round or
		// overflow to ±Inf, and NaN midpoints (next to a NaN value, or
		// between -Inf and +Inf) are skipped.
		p := 0
		for p < n && math.IsNaN(col[list[p]]) {
			p++
		}
		nan, lOnes := p, 0
		for k := range min(len(mids), g.t.MaxThresholds) {
			thr := mids[keptThreshold(k, len(mids), g.t.MaxThresholds)]
			if math.IsNaN(thr) {
				continue // no value is <= NaN: the left side would be empty
			}
			for p < n && col[list[p]] <= thr {
				lOnes += g.y[list[p]]
				p++
			}
			lN := p - nan
			rN, rOnes := n-lN, ones-lOnes
			if lN < g.t.MinLeaf || rN < g.t.MinLeaf {
				continue
			}
			pl := float64(lOnes) / float64(lN)
			pr := float64(rOnes) / float64(rN)
			impurity := (float64(lN)*2*pl*(1-pl) + float64(rN)*2*pr*(1-pr)) / float64(n)
			if gain := parent - impurity; gain > bestGain {
				bestGain, best, threshold = gain, f, thr
			}
		}
	}
	return best, threshold
}

// partition splits positions [lo, hi) of every list stably into the rows
// with X[r][features[f]] <= threshold, then the rest, so both halves stay
// sorted. It returns where the right half starts and the left half's
// class-1 count.
func (g *grower) partition(lo, hi, f int, threshold float64) (mid, leftOnes int) {
	col := g.cols[g.features[f]]
	for _, r := range g.lists[f][lo:hi] {
		g.goLeft[r] = 0
		if col[r] <= threshold {
			g.goLeft[r] = 1
			leftOnes += g.y[r]
		}
	}
	for _, list := range g.lists[:len(g.features)] {
		// Branch-free: every row is written to both sides and only the
		// side it belongs to advances.
		w, s := lo, 0
		for _, r := range list[lo:hi] {
			left := g.goLeft[r]
			list[w] = r
			g.scratch[s] = r
			w += left
			s += 1 - left
		}
		copy(list[w:hi], g.scratch[:s])
		mid = w
	}
	return mid, leftOnes
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x []float64) int {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// RandomForest is a bagged ensemble of decision trees with per-tree feature
// subsampling — the Income Prediction case study's classifier.
type RandomForest struct {
	// Trees is the ensemble size (default 20, also taken by a negative
	// size).
	Trees int
	// MaxDepth is per-tree depth (default 6).
	MaxDepth int
	// MTry is the number of features sampled per tree (default ⌊√d⌋).
	MTry int
	// Seed drives bootstrap and feature sampling (deterministic).
	Seed int64

	ensemble []*DecisionTree
}

// Fit trains the forest on a feature matrix and binary labels. The trees
// grow on up to GOMAXPROCS goroutines that live for this call; the forest
// is the same at any GOMAXPROCS, since only the calling goroutine draws
// random numbers, in tree order, and tree b lands at ensemble position b
// whichever goroutine grew it.
func (f *RandomForest) Fit(X [][]float64, y []int) {
	if f.Trees <= 0 {
		f.Trees = 20
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 6
	}
	if len(X) == 0 {
		return
	}
	if len(y) < len(X) {
		// Checked here: a tree goroutine's index panic would kill the
		// process rather than reach the caller.
		panic("ml: RandomForest.Fit given fewer labels than rows")
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	n, d := len(X), len(X[0])
	mtry := f.MTry
	if mtry <= 0 {
		mtry = intSqrt(d)
	}
	if mtry < 1 {
		mtry = 1
	}
	if mtry > d {
		mtry = d
	}
	m := newPresorted(X, y)
	f.ensemble = make([]*DecisionTree, f.Trees)
	type job struct {
		tree   *DecisionTree
		counts []int
	}
	jobs := make(chan job)
	workers := min(runtime.GOMAXPROCS(0), f.Trees)
	// Each tree trains on a bootstrap sample, kept as a draw count per row
	// so that the presorted rows serve every tree. A worker hands its
	// counts back when its tree is grown, so at most workers+1 are in
	// flight: one per tree growing and one being drawn.
	spare := make(chan []int, workers+1)
	for range workers + 1 {
		spare <- getInts(n)
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGrower(m)
			for j := range jobs {
				j.tree.root = g.grow(j.tree, j.counts)
				spare <- j.counts
			}
			g.release()
		}()
	}
	for b := range f.Trees {
		counts := <-spare
		clear(counts)
		for range n {
			counts[rng.Intn(n)]++
		}
		tree := &DecisionTree{MaxDepth: f.MaxDepth, Features: rng.Perm(d)[:mtry]}
		tree.fillDefaults()
		m.sortFeatures(tree.Features)
		f.ensemble[b] = tree
		jobs <- job{tree, counts}
	}
	close(jobs)
	wg.Wait()
	for range workers + 1 {
		putInts(<-spare)
	}
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Predict implements Classifier by majority vote.
func (f *RandomForest) Predict(x []float64) int {
	ones := 0
	for _, t := range f.ensemble {
		ones += t.Predict(x)
	}
	if 2*ones >= len(f.ensemble) {
		return 1
	}
	return 0
}
