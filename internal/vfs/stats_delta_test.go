package vfs

import (
	"reflect"
	"testing"
)

// TestStatsDeltaCoverage fills every Stats field with a distinct value and
// checks Delta field by field: each counter comes out as s - prev, the
// Dentries gauge as s's value.
func TestStatsDeltaCoverage(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	var prev, cur Stats
	pv := reflect.ValueOf(&prev).Elem()
	cv := reflect.ValueOf(&cur).Elem()
	for i := 0; i < typ.NumField(); i++ {
		pv.Field(i).SetInt(int64(i + 1))
		cv.Field(i).SetInt(int64((i + 1) * 7))
	}
	dv := reflect.ValueOf(cur.Delta(prev))
	for i := 0; i < typ.NumField(); i++ {
		want := int64((i+1)*7 - (i + 1))
		if Counter(i) == NDentries {
			want = int64((i + 1) * 7)
		}
		if got := dv.Field(i).Int(); got != want {
			t.Errorf("Delta.%s = %d, want %d", typ.Field(i).Name, got, want)
		}
	}
}
