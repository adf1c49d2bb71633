package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dfs"
	"repro/internal/pigmix"
	"repro/internal/types"
)

// Upload schemas of the four PigMix tables, typed like the generator's own
// schemas so the daemon stores exactly the values the generator produced.
const (
	pageViewsDecl = "user:chararray, action:int, timespent:int, query_term:chararray, ip_addr:chararray, timestamp:int, estimated_revenue:double, page_info:chararray, page_links:chararray"
	usersDecl     = "name:chararray, phone:chararray, address:chararray, city:chararray, state:chararray, zip:chararray"
	wideRowDecl   = "user:chararray, c1:chararray, c2:chararray, c3:chararray, c4:chararray, c5:chararray, c6:chararray, c7:chararray, c8:chararray, c9:chararray, c10:chararray"
)

// numVersions is how many contents the re-uploaded table cycles through.
// Consecutive rounds always upload different contents, so a stale reuse
// would return the previous version's answer and fail the row check.
const numVersions = 2

// tableSpec is one PigMix table as the benchmark uploads it.
type tableSpec struct {
	path       string // path under the client's prefix
	decl       string
	partitions int
}

var (
	pageViewsTable  = tableSpec{pigmix.PathPageViews, pageViewsDecl, 4}
	usersTable      = tableSpec{pigmix.PathUsers, usersDecl, 2}
	powerUsersTable = tableSpec{pigmix.PathPowerUsers, usersDecl, 1}
	wideRowTable    = tableSpec{pigmix.PathWideRow, wideRowDecl, 2}
)

// instance is one generated PigMix 15 GB instance held as tuples.
type instance struct {
	pageViews, users, powerUsers, wideRow []types.Tuple
}

// generate runs the PigMix generator with the given seed into a private
// DFS and reads the four tables back.
func generate(seed int64) (*instance, error) {
	fs := dfs.New()
	cfg := pigmix.Instance15GB().Config
	cfg.Seed = seed
	if err := pigmix.Generate(fs, cfg); err != nil {
		return nil, fmt.Errorf("generate pigmix: %w", err)
	}
	var in instance
	for _, t := range []struct {
		path string
		dst  *[]types.Tuple
	}{
		{pigmix.PathPageViews, &in.pageViews},
		{pigmix.PathUsers, &in.users},
		{pigmix.PathPowerUsers, &in.powerUsers},
		{pigmix.PathWideRow, &in.wideRow},
	} {
		rows, err := fs.ReadAll(t.path)
		if err != nil {
			return nil, fmt.Errorf("read generated %s: %w", t.path, err)
		}
		*t.dst = rows
	}
	return &in, nil
}

// dropUsers returns users without a seeded tenth of its rows: a new users
// version whose join, anti-join and union answers differ from the base.
func dropUsers(users []types.Tuple, seed int64) []types.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]types.Tuple, 0, len(users))
	for _, u := range users {
		if rng.Intn(10) != 0 {
			out = append(out, u)
		}
	}
	return out
}

// tsvLines renders tuples as the upload endpoint's TSV lines.
func tsvLines(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = types.FormatTSV(r)
	}
	return out
}

// dataset is everything a run uploads and checks against, built from the
// workload seed before the daemon starts.
type dataset struct {
	// base holds the upload lines of the four tables at version 0.
	base map[tableSpec][]string
	// varying is the table each round re-uploads, and versions its
	// contents: round r uploads versions[(r+1)%numVersions].
	varying  tableSpec
	versions [numVersions][]string
	// want[v][q] is the reference answer of query q while the varying
	// table holds version v.
	want [numVersions]map[string][]string
	// baseBytes sums the encoded bytes of the four base tables as the
	// daemon reported them at upload (per client copy).
	baseBytes int64
}

// buildDataset generates the instance and its table versions for a
// workload and computes every reference answer.
func buildDataset(w *workload, seed int64) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	baseSeed, altSeed := rng.Int63(), rng.Int63()
	in, err := generate(baseSeed)
	if err != nil {
		return nil, err
	}
	d := &dataset{base: map[tableSpec][]string{
		pageViewsTable:  tsvLines(in.pageViews),
		usersTable:      tsvLines(in.users),
		powerUsersTable: tsvLines(in.powerUsers),
		wideRowTable:    tsvLines(in.wideRow),
	}}
	var vers [numVersions]*instance
	switch w.varying {
	case pageViewsTable:
		alt, err := generate(altSeed)
		if err != nil {
			return nil, err
		}
		vers[0] = in
		vers[1] = &instance{pageViews: alt.pageViews, users: in.users, powerUsers: in.powerUsers, wideRow: in.wideRow}
		d.versions[0], d.versions[1] = d.base[pageViewsTable], tsvLines(alt.pageViews)
	case usersTable:
		vers[0] = in
		vers[1] = &instance{pageViews: in.pageViews, users: dropUsers(in.users, altSeed), powerUsers: in.powerUsers, wideRow: in.wideRow}
		d.versions[0], d.versions[1] = d.base[usersTable], tsvLines(vers[1].users)
	default:
		return nil, fmt.Errorf("no versions for table %s", w.varying.path)
	}
	d.varying = w.varying
	for v, inst := range vers {
		rt := newRefTables(inst)
		d.want[v] = make(map[string][]string, len(w.queries))
		for _, q := range w.queries {
			rows, err := reference(q, rt)
			if err != nil {
				return nil, err
			}
			d.want[v][q] = rows
		}
	}
	return d, nil
}

// setupOrderSeed replaces the run's seed in the query orders of the set-up
// build pass and the warm-up round, so that set-up does the same work in
// every run. With these orders the warm-up round meets the rewriter's
// order-dependent miss of whole-query reuse (see README.md) in every run:
// client 1's L2 executes its join although its inputs are unchanged. The
// reuse check counts it as a failed query.
const setupOrderSeed = 3

// queryOrder returns the queries of one client's round: the workload's
// list, shuffled by a seed derived from (seed, client, round) when the
// workload asks for a seeded order.
func queryOrder(w *workload, seed int64, client, round int) []string {
	qs := append([]string(nil), w.queries...)
	if !w.shuffle {
		return qs
	}
	if round <= 0 {
		seed = setupOrderSeed
	}
	sort.Strings(qs)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*10_007 + int64(round)))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}
