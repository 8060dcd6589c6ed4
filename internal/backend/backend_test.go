package backend_test

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/workloads/tsvc"
)

func buildExample(t *testing.T, path string, opt rolag.Optimization) *rolag.Result {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rolag.Config{Name: filepath.Base(path), Opt: opt}
	if opt == rolag.OptRoLAG {
		cfg.Options = rolag.DefaultOptions()
	}
	res, err := rolag.Build(string(src), cfg)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return res
}

func examplePaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "c", "*.c"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	return paths
}

// TestLowerExamples lowers every example under both pipelines and
// checks the encoder produces a nonzero, deterministic .text.
func TestLowerExamples(t *testing.T) {
	for _, path := range examplePaths(t) {
		for _, opt := range []rolag.Optimization{rolag.OptNone, rolag.OptRoLAG} {
			res := buildExample(t, path, opt)
			r, err := backend.Compile(res.Module, nil)
			if err != nil {
				t.Fatalf("%s opt=%v: %v", path, opt, err)
			}
			if r.Code.Text == 0 {
				t.Errorf("%s opt=%v: empty .text", path, opt)
			}
			asm := r.Asm()
			if asm == "" {
				t.Errorf("%s opt=%v: empty asm", path, opt)
			}
			// Determinism: a second compile of the same module must be
			// byte-identical.
			r2, err := backend.Compile(res.Module, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range r.Code.FuncOrder {
				if !bytes.Equal(r.Code.Funcs[name].Bytes, r2.Code.Funcs[name].Bytes) {
					t.Errorf("%s opt=%v: non-deterministic encoding for %s", path, opt, name)
				}
			}
			if r.Asm() != asm {
				t.Errorf("%s opt=%v: non-deterministic asm", path, opt)
			}
		}
	}
}

// zeroRunSrc has a global whose zero run sits between non-zero bytes,
// so the printer emits .byte, .zero and .byte lines for one symbol.
const zeroRunSrc = `
const int table[24] = {7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9};
const char pad = 1;
double scale[3];
int f(int i) { return table[i] + pad; }
`

// agreementCase is one module the assembler cross-checks.
type agreementCase struct {
	name string
	res  *backend.Result
}

func agreementCases(t *testing.T) []agreementCase {
	t.Helper()
	var cases []agreementCase
	add := func(name string, res *rolag.Result) {
		r, err := backend.Compile(res.Module, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, agreementCase{name, r})
	}
	build := func(src string, cfg rolag.Config) *rolag.Result {
		res, err := rolag.Build(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		return res
	}
	for _, path := range examplePaths(t) {
		for _, opt := range []rolag.Optimization{rolag.OptNone, rolag.OptRoLAG} {
			add(fmt.Sprintf("%s opt=%v", path, opt), buildExample(t, path, opt))
		}
	}
	// Every TSVC kernel, compiled the way the paper's §V.C experiment
	// does: their global arrays are all-zero symbols, their float
	// literals small aligned ones, and RoLAG's constant tables mix zero
	// and non-zero bytes.
	for _, k := range tsvc.Kernels() {
		add("tsvc "+k.Name, build(k.Src, rolag.Config{Name: k.Func, Opt: rolag.OptRoLAG,
			Options: rolag.DefaultOptions(), Unroll: 8, Flatten: true}))
	}
	add("zero-run", build(zeroRunSrc, rolag.Config{Name: "zero-run", Opt: rolag.OptNone}))
	return cases
}

// TestAssemblerAgreement assembles the printed assembly with the system
// assembler (when present) and checks the built-in encoder agrees: on
// function sizes, on every .text byte outside relocated fields, and on
// every byte of .rodata.
func TestAssemblerAgreement(t *testing.T) {
	as, err := exec.LookPath("as")
	if err != nil {
		t.Skip("no system assembler in PATH")
	}
	var allZero, mixed, aligned bool
	for _, c := range agreementCases(t) {
		r := c.res
		obj := filepath.Join(t.TempDir(), "out.o")
		cmd := exec.Command(as, "--64", "-o", obj, "--", "-")
		cmd.Stdin = bytes.NewReader([]byte(r.Asm()))
		if outb, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s: as failed: %v\n%s\nasm:\n%s", c.name, err, outb, r.Asm())
		}
		ef, err := elf.Open(obj)
		if err != nil {
			t.Fatal(err)
		}
		syms, err := ef.Symbols()
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range syms {
			if elf.ST_TYPE(sym.Info) != elf.STT_FUNC {
				continue
			}
			if got := r.Code.FuncSize(sym.Name); got != int64(sym.Size) {
				t.Errorf("%s: %s: encoder says %d bytes, assembler says %d",
					c.name, sym.Name, got, sym.Size)
			}
		}
		text := ef.Section(".text")
		if text == nil {
			t.Fatalf("%s: no .text section", c.name)
		}
		if int64(text.Size) != r.Code.Text {
			t.Errorf("%s: .text size: encoder %d, assembler %d", c.name, r.Code.Text, text.Size)
		}
		gotText, err := text.Data()
		if err != nil {
			t.Fatal(err)
		}
		var wantText []byte
		for _, name := range r.Code.FuncOrder {
			wantText = append(wantText, r.Code.Funcs[name].Bytes...)
		}
		// A relocated field holds zero in the object file (the addend
		// lives in the relocation) and the addend in the encoder's
		// bytes; compare everything else.
		if rela := ef.Section(".rela.text"); rela != nil && len(gotText) == len(wantText) {
			relocs, err := rela.Data()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+24 <= len(relocs); i += 24 {
				off := binary.LittleEndian.Uint64(relocs[i:])
				clear(gotText[off : off+4])
				clear(wantText[off : off+4])
			}
		}
		if !bytes.Equal(gotText, wantText) {
			i := 0
			for i < len(gotText) && i < len(wantText) && gotText[i] == wantText[i] {
				i++
			}
			t.Errorf("%s: .text bytes differ from offset %d", c.name, i)
		}
		want := r.Mach.RodataImage()
		if int64(len(want)) != r.Code.Rodata {
			t.Errorf("%s: rodata image is %d bytes, encoder sizes it %d", c.name, len(want), r.Code.Rodata)
		}
		var got []byte
		if sec := ef.Section(".rodata"); sec != nil {
			if got, err = sec.Data(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: .rodata differs: assembler %d bytes, encoder %d bytes", c.name, len(got), len(want))
		}
		ef.Close()
		for _, s := range r.Mach.Rodata {
			zeros := bytes.Count(s.Data, []byte{0})
			allZero = allZero || (len(s.Data) > 0 && zeros == len(s.Data))
			mixed = mixed || (zeros > 0 && zeros < len(s.Data))
			aligned = aligned || s.Align > 1
		}
	}
	if !allZero || !mixed || !aligned {
		t.Errorf("rodata coverage: all-zero %t, mixed %t, aligned %t; want all three", allZero, mixed, aligned)
	}
}

// TestTSVCAsmIsCompact bounds the average assembly listing of a TSVC
// kernel compiled as in §V.C: zero runs print as .zero, so the
// kernels' zero-filled global arrays take a line each, not ~90 KB of
// .byte lines.
func TestTSVCAsmIsCompact(t *testing.T) {
	total, n := 0, 0
	for _, c := range agreementCases(t) {
		if strings.HasPrefix(c.name, "tsvc ") {
			total += len(c.res.Asm())
			n++
		}
	}
	if avg := total / n; avg > 3<<10 {
		t.Errorf("average TSVC listing is %d bytes, want at most %d", avg, 3<<10)
	}
}
