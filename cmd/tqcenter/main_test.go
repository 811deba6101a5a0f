package main

import "testing"

func TestParseWidths(t *testing.T) {
	tests := []struct {
		name    string
		give    string
		want    map[int]int
		wantErr bool
	}{
		{
			name: "uniform",
			give: "0:1638,1:1638,2:1638",
			want: map[int]int{0: 1638, 1: 1638, 2: 1638},
		},
		{
			name: "diversity with spaces",
			give: "0:1638, 1:3276, 2:6552",
			want: map[int]int{0: 1638, 1: 3276, 2: 6552},
		},
		{name: "empty", give: "", wantErr: true},
		{name: "missing colon", give: "0-1638", wantErr: true},
		{name: "bad id", give: "x:1638", wantErr: true},
		{name: "bad width", give: "0:abc", wantErr: true},
		{name: "zero width", give: "0:0", wantErr: true},
		{name: "duplicate id", give: "0:4,0:8", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseWidths(tt.give)
			if (err != nil) != tt.wantErr {
				t.Fatalf("parseWidths(%q) err = %v, wantErr %v", tt.give, err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
			for id, w := range tt.want {
				if got[id] != w {
					t.Fatalf("point %d: got %d, want %d", id, got[id], w)
				}
			}
		})
	}
}
