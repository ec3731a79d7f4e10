package cache

import (
	"reflect"
	"testing"
)

// TestStatsSubCoversEveryField sets every counter through reflection, so
// a counter added to Stats but not to Sub fails here instead of leaking
// cumulative counts into a measured window.
func TestStatsSubCoversEveryField(t *testing.T) {
	var cur, prev Stats
	cv, pv := reflect.ValueOf(&cur).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(uint64(1000 + 7*i))
		pv.Field(i).SetUint(uint64(100 + i))
	}
	dv := reflect.ValueOf(cur.Sub(prev))
	for i := 0; i < dv.NumField(); i++ {
		want := cv.Field(i).Uint() - pv.Field(i).Uint()
		if got := dv.Field(i).Uint(); got != want {
			t.Errorf("Sub: %s = %d, want %d", dv.Type().Field(i).Name, got, want)
		}
	}
}
