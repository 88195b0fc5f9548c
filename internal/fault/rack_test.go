package fault

import (
	"reflect"
	"testing"
)

func TestRackScheduleDeterministic(t *testing.T) {
	a, err := RackSchedule(42, 4, 1000, 200, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RackSchedule(42, 4, 1000, 200, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c, err := RackSchedule(43, 4, 1000, 200, 30)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestRackScheduleRackCountInvariant pins the stream-splitting contract:
// raising the rack count must not perturb the schedules of existing racks.
func TestRackScheduleRackCountInvariant(t *testing.T) {
	small, err := RackSchedule(7, 2, 2000, 300, 50)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RackSchedule(7, 6, 2000, 300, 50)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(o Outages, below int) Outages {
		var out Outages
		for _, ro := range o {
			if ro.Rack < below {
				out = append(out, ro)
			}
		}
		return out
	}
	if !reflect.DeepEqual(small, filter(big, 2)) {
		t.Fatal("adding racks changed existing racks' outages")
	}
}

func TestRackScheduleBounds(t *testing.T) {
	o, err := RackSchedule(3, 5, 500, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, ro := range o {
		if ro.Rack < 0 || ro.Rack >= 5 {
			t.Fatalf("outage %d names rack %d outside [0,5)", i, ro.Rack)
		}
		if ro.Start < 0 || ro.End > 500 || ro.End <= ro.Start {
			t.Fatalf("outage %d has bad window [%g,%g)", i, ro.Start, ro.End)
		}
		if i > 0 && o[i-1].Start > ro.Start {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	// Per-rack outages must not overlap: a rack cannot fail while down.
	for r := 0; r < 5; r++ {
		last := -1.0
		for _, ro := range o {
			if ro.Rack != r {
				continue
			}
			if ro.Start < last {
				t.Fatalf("rack %d outage starting %g overlaps previous ending %g", r, ro.Start, last)
			}
			last = ro.End
		}
	}
}

func TestOutageQueries(t *testing.T) {
	o := Outages{{Rack: 0, Start: 10, End: 20}, {Rack: 1, Start: 15, End: 18}}
	if !o.DownDuring(0, 19, 25) || !o.DownDuring(1, 0, 16) {
		t.Fatal("DownDuring misses a partial overlap")
	}
	if o.DownDuring(0, 20, 30) || o.DownDuring(0, 0, 10) {
		t.Fatal("DownDuring fires on touching-but-disjoint windows")
	}
}

func TestRackScheduleValidation(t *testing.T) {
	if _, err := RackSchedule(1, -1, 100, 10, 5); err == nil {
		t.Fatal("negative rack count accepted")
	}
	if _, err := RackSchedule(1, 2, 100, 0, 5); err == nil {
		t.Fatal("zero mean-between accepted")
	}
	if _, err := RackSchedule(1, 2, 100, 10, -1); err == nil {
		t.Fatal("negative mean-down accepted")
	}
	o, err := RackSchedule(1, 0, 100, 10, 5)
	if err != nil || len(o) != 0 {
		t.Fatalf("zero racks: %v, %d outages", err, len(o))
	}
}
