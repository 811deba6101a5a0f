package topoflag

import (
	"maps"
	"testing"
)

func TestPairs(t *testing.T) {
	for _, tc := range []struct {
		give    string
		want    map[int]int
		wantErr bool
	}{
		{give: "", want: nil},
		{give: "0:1638", want: map[int]int{0: 1638}},
		{give: "0:1638, 1:3276,2:6552", want: map[int]int{0: 1638, 1: 3276, 2: 6552}},
		{give: "0-1638", wantErr: true},
		{give: "x:4", wantErr: true},
		{give: "0:abc", wantErr: true},
		{give: "0:0", wantErr: true},
		{give: "0:-4", wantErr: true},
		{give: "0:4,0:8", wantErr: true},
		{give: "0:4,", wantErr: true},
	} {
		got, err := Pairs(tc.give, "width")
		if (err != nil) != tc.wantErr {
			t.Errorf("Pairs(%q) err = %v, wantErr %v", tc.give, err, tc.wantErr)
			continue
		}
		if !maps.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("Pairs(%q) = %v, want %v", tc.give, got, tc.want)
		}
	}
}

func TestShard(t *testing.T) {
	for _, tc := range []struct {
		give    string
		i, n    int
		wantErr bool
	}{
		{give: "", i: 0, n: 1},
		{give: "0/2", i: 0, n: 2},
		{give: "3/4", i: 3, n: 4},
		{give: "2", wantErr: true},
		{give: "a/2", wantErr: true},
		{give: "0/b", wantErr: true},
		{give: "2/2", wantErr: true},
		{give: "-1/2", wantErr: true},
		{give: "0/0", wantErr: true},
	} {
		i, n, err := Shard(tc.give)
		if (err != nil) != tc.wantErr {
			t.Errorf("Shard(%q) err = %v, wantErr %v", tc.give, err, tc.wantErr)
			continue
		}
		if err == nil && (i != tc.i || n != tc.n) {
			t.Errorf("Shard(%q) = %d/%d, want %d/%d", tc.give, i, n, tc.i, tc.n)
		}
	}
}
