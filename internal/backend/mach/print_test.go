package mach

import (
	"bytes"
	"strings"
	"testing"
)

func TestPrintData(t *testing.T) {
	nz := func(n int) []byte { return bytes.Repeat([]byte{0xab}, n) }
	zeros := func(n int) []byte { return make([]byte, n) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, ""},
		{"short all-zero symbol", zeros(4), "\t.zero\t4\n"},
		{"long all-zero symbol", zeros(1024), "\t.zero\t1024\n"},
		{"no zeros", nz(3), "\t.byte\t0xab, 0xab, 0xab\n"},
		{"hex digits", []byte{0x00, 0x0f, 0xf0, 0x9a}, "\t.byte\t0x00, 0x0f, 0xf0, 0x9a\n"},
		{"lines of 16", nz(17),
			"\t.byte\t" + strings.Repeat("0xab, ", 15) + "0xab\n\t.byte\t0xab\n"},
		{"short inner run stays bytes", cat(nz(1), zeros(15), nz(1)),
			"\t.byte\t0xab" + strings.Repeat(", 0x00", 15) + "\n\t.byte\t0xab\n"},
		{"inner run of 16", cat(nz(1), zeros(16), nz(1)),
			"\t.byte\t0xab\n\t.zero\t16\n\t.byte\t0xab\n"},
		{"leading run", cat(zeros(20), nz(1)), "\t.zero\t20\n\t.byte\t0xab\n"},
		{"trailing run", cat(nz(1), zeros(20)), "\t.byte\t0xab\n\t.zero\t20\n"},
		{"short leading zeros", cat(zeros(2), nz(1)), "\t.byte\t0x00, 0x00, 0xab\n"},
	}
	for _, tc := range cases {
		var b strings.Builder
		printData(&b, tc.data)
		if got := b.String(); got != tc.want {
			t.Errorf("%s: got\n%q\nwant\n%q", tc.name, got, tc.want)
		}
	}
}

// TestPrintOmitsModuleName pins that the listing does not depend on the
// module's name, which the service leaves out of its cache key.
func TestPrintOmitsModuleName(t *testing.T) {
	listing := func(name string) string {
		return Print(&Module{Name: name, Rodata: []RodataSym{{Name: "g", Align: 4, Data: make([]byte, 4)}}}, nil)
	}
	if a, b := listing("alpha"), listing("beta"); a != b {
		t.Errorf("listings differ by module name:\n%s\n---\n%s", a, b)
	}
}
