package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

// The reference answers below are computed in plain Go from the
// generator's tuples, never through the System: maps and loops that
// restate each PigMix query's meaning. Rows are rendered the way the
// daemon renders output rows (types.FormatTSV: tab-separated, floats in
// shortest 'g' form, tuples as "(a,b)") and sorted.

// view is one page_views row, with the columns the queries read.
type view struct {
	user, term, ip      string
	action, spent, time int64
	revenue             float64
}

// refTables is one data version of the four tables, decoded for the
// reference queries.
type refTables struct {
	views []view
	users []string // users.name
	power []string // power_users.name
	wide  [][3]string
}

func newRefTables(in *instance) *refTables {
	rt := &refTables{views: make([]view, len(in.pageViews))}
	for i, t := range in.pageViews {
		rt.views[i] = view{
			user: t[0].Str(), action: t[1].Int(), spent: t[2].Int(), term: t[3].Str(),
			ip: t[4].Str(), time: t[5].Int(), revenue: t[6].Float(),
		}
	}
	for _, t := range in.users {
		rt.users = append(rt.users, t[0].Str())
	}
	for _, t := range in.powerUsers {
		rt.power = append(rt.power, t[0].Str())
	}
	for _, t := range in.wideRow {
		rt.wide = append(rt.wide, [3]string{t[0].Str(), t[1].Str(), t[2].Str()})
	}
	return rt
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
func itoa(i int64) string   { return strconv.FormatInt(i, 10) }

func setOf(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// reference returns the sorted output rows of query q on rt.
func reference(q string, rt *refTables) ([]string, error) {
	var rows []string
	switch q {
	case "L2":
		power := setOf(rt.power)
		for _, v := range rt.views {
			if power[v.user] {
				rows = append(rows, v.user+"\t"+v.user+"\t"+ftoa(v.revenue))
			}
		}
	case "L3", "L3a", "L3b", "L3c":
		users := setOf(rt.users)
		type agg struct {
			sum, min, max float64
			n             int
		}
		by := map[string]*agg{}
		for _, v := range rt.views {
			if !users[v.user] {
				continue
			}
			a := by[v.user]
			if a == nil {
				a = &agg{min: math.Inf(1), max: math.Inf(-1)}
				by[v.user] = a
			}
			a.sum += v.revenue
			a.min = math.Min(a.min, v.revenue)
			a.max = math.Max(a.max, v.revenue)
			a.n++
		}
		for u, a := range by {
			val := map[string]float64{"L3": a.sum, "L3a": a.sum / float64(a.n), "L3b": a.min, "L3c": a.max}[q]
			rows = append(rows, u+"\t"+ftoa(val))
		}
	case "L4":
		actions := map[string]map[int64]bool{}
		for _, v := range rt.views {
			if actions[v.user] == nil {
				actions[v.user] = map[int64]bool{}
			}
			actions[v.user][v.action] = true
		}
		for u, as := range actions {
			rows = append(rows, u+"\t"+itoa(int64(len(as))))
		}
	case "L5":
		seen := map[string]bool{}
		for _, v := range rt.views {
			seen[v.user] = true
		}
		for u := range setOf(rt.users) {
			if !seen[u] {
				rows = append(rows, u)
			}
		}
	case "L6":
		spent := map[[2]string]int64{}
		for _, v := range rt.views {
			spent[[2]string{v.user, v.term}] += v.spent
		}
		for k, s := range spent {
			rows = append(rows, "("+k[0]+","+k[1]+")\t"+itoa(s))
		}
	case "L7":
		counts := map[string]*[2]int64{}
		for _, v := range rt.views {
			c := counts[v.user]
			if c == nil {
				c = &[2]int64{}
				counts[v.user] = c
			}
			if v.time < 43200 {
				c[0]++
			} else {
				c[1]++
			}
		}
		for u, c := range counts {
			rows = append(rows, u+"\t"+itoa(c[0])+"\t"+itoa(c[1]))
		}
	case "L8":
		var revenue float64
		var spent int64
		for _, v := range rt.views {
			revenue += v.revenue
			spent += v.spent
		}
		rows = append(rows, itoa(int64(len(rt.views)))+"\t"+ftoa(revenue)+"\t"+itoa(spent))
	case "L11", "L11a", "L11b", "L11c", "L11d":
		set := map[string]bool{}
		for _, v := range rt.views {
			set[map[string]string{"L11": v.user, "L11a": v.user, "L11b": v.user, "L11c": v.term, "L11d": v.ip}[q]] = true
		}
		switch q {
		case "L11":
			for _, w := range rt.wide {
				set[w[0]] = true
			}
		case "L11a":
			for _, u := range rt.users {
				set[u] = true
			}
		case "L11b":
			for _, u := range rt.power {
				set[u] = true
			}
		case "L11c":
			for _, w := range rt.wide {
				set[w[1]] = true
			}
		case "L11d":
			for _, w := range rt.wide {
				set[w[2]] = true
			}
		}
		rows = sortedKeys(set)
	default:
		return nil, fmt.Errorf("no reference for query %q", q)
	}
	sort.Strings(rows)
	return rows, nil
}

// relTol is the relative tolerance for float columns: aggregates summed
// in a different order than the reference's differ in the last bits.
const relTol = 1e-9

// compareRows checks got against want line by line. Lines must match
// exactly except for numeric fields, which may differ by relTol.
func compareRows(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] && !closeLine(got[i], want[i]) {
			return fmt.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

func closeLine(a, b string) bool {
	fa, fb := strings.Split(a, "\t"), strings.Split(b, "\t")
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		x, errX := strconv.ParseFloat(fa[i], 64)
		y, errY := strconv.ParseFloat(fb[i], 64)
		if errX != nil || errY != nil || math.Abs(x-y) > relTol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// tinyInstance is a hand-sized instance whose answers are worked out by
// hand in tinyWant.
func tinyInstance() *instance {
	s, i, f := types.NewString, types.NewInt, types.NewFloat
	pv := func(user string, action, spent int64, term, ip string, ts int64, rev float64) types.Tuple {
		return types.Tuple{s(user), i(action), i(spent), s(term), s(ip), i(ts), f(rev), s("info"), s("links")}
	}
	user := func(name string) types.Tuple {
		return types.Tuple{s(name), s("555-0000"), s("addr"), s("city001"), s("st01"), s("00001")}
	}
	wide := func(u, c1, c2 string) types.Tuple {
		return types.Tuple{s(u), s(c1), s(c2), s("c"), s("c"), s("c"), s("c"), s("c"), s("c"), s("c"), s("c")}
	}
	return &instance{
		pageViews: []types.Tuple{
			pv("u1", 1, 10, "t1", "i1", 100, 1.5),
			pv("u1", 2, 20, "t2", "i1", 50000, 2.5),
			pv("u2", 1, 5, "t1", "i2", 60000, 4),
			pv("u1", 1, 7, "t1", "i1", 43200, 0.25),
		},
		users:      []types.Tuple{user("u1"), user("u2"), user("u3")},
		powerUsers: []types.Tuple{user("u1")},
		wideRow:    []types.Tuple{wide("u4", "x", "y"), wide("u1", "t1", "z")},
	}
}

// tinyWant are the hand-computed answers on tinyInstance, sorted.
var tinyWant = map[string][]string{
	"L2":   {"u1\tu1\t0.25", "u1\tu1\t1.5", "u1\tu1\t2.5"},
	"L3":   {"u1\t4.25", "u2\t4"},
	"L3a":  {"u1\t1.4166666666666667", "u2\t4"},
	"L3b":  {"u1\t0.25", "u2\t4"},
	"L3c":  {"u1\t2.5", "u2\t4"},
	"L4":   {"u1\t2", "u2\t1"},
	"L5":   {"u3"},
	"L6":   {"(u1,t1)\t17", "(u1,t2)\t20", "(u2,t1)\t5"},
	"L7":   {"u1\t1\t2", "u2\t0\t1"},
	"L8":   {"4\t8.25\t42"},
	"L11":  {"u1", "u2", "u4"},
	"L11a": {"u1", "u2", "u3"},
	"L11b": {"u1", "u2"},
	"L11c": {"t1", "t2", "x"},
	"L11d": {"i1", "i2", "y", "z"},
}

// checkReference verifies the reference implementation against the
// hand-computed answers on the tiny instance. Every run calls it before
// trusting the reference with generated data.
func checkReference() error {
	rt := newRefTables(tinyInstance())
	for q, want := range tinyWant {
		got, err := reference(q, rt)
		if err != nil {
			return err
		}
		if err := compareRows(got, want); err != nil {
			return fmt.Errorf("reference %s on the tiny instance: %w", q, err)
		}
	}
	return nil
}
