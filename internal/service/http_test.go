package service

import (
	"net/url"
	"strings"
	"testing"
)

// FuzzPlanQuery holds planQuery, the hand-rolled /v1/plan query parser, to
// url.ParseQuery: it must never panic, and on every raw query ParseQuery
// accepts whose keys need no unescaping — planQuery matches keys raw — it
// must return (Values.Get(key), Values.Has(key)) for each key the handler
// reads.
func FuzzPlanQuery(f *testing.F) {
	for _, q := range []string{
		"tenant=a&deadline=10&work=5",
		"tenant=a+b&cap=1e%2B3",
		"tenant=%41%62&deadline=%31%30",
		"tenant=a&deadline=%zz",
		"work=1&work=2&cap=3&cap=",
		"&&tenant=a&&deadline=&",
		"tenant&work",
		"tenant=a;deadline=1",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		type param struct {
			value   string
			present bool
		}
		keys := []string{"tenant", "deadline", "work", "cap"}
		got := make([]param, len(keys))
		for i, key := range keys {
			got[i].value, got[i].present = planQuery(raw, key)
		}
		values, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		for _, pair := range strings.Split(raw, "&") {
			k, _, _ := strings.Cut(pair, "=")
			if u, err := url.QueryUnescape(k); err != nil || u != k {
				return
			}
		}
		for i, key := range keys {
			if want := (param{values.Get(key), values.Has(key)}); got[i] != want {
				t.Fatalf("planQuery(%q, %q) = %q, %v; url.ParseQuery gives %q, %v",
					raw, key, got[i].value, got[i].present, want.value, want.present)
			}
		}
	})
}
