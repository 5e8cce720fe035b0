package ntt

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// avx2Kernels are the TEXT symbols of vector_amd64.s that touch
// coefficients.
var avx2Kernels = []string{"forwardAVX2", "inverseAVX2", "pointwiseMulAVX2"}

// avx2StageExits are the forward conditional jumps the AVX2 kernels may
// take, keyed "symbol: JCC label", each with why it depends on n alone.
var avx2StageExits = map[string]string{
	"forwardAVX2: JLE fwdTail":  "leaves the wide-stage loop once the lo-to-hi distance reaches 32 bytes; that distance starts at 2n bytes and halves per stage",
	"inverseAVX2: JLE invFinal": "leaves the wide-stage loop at the final stage; the group count starts at n/32 and halves per stage",
}

// TestAVX2KernelsHaveNoDataBranches is the no-branch gate of the AVX2
// kernels, read from vector_amd64.s itself: go tool objdump misdecodes
// VEX-encoded instructions and prints jumps the source does not have. In
// forwardAVX2, inverseAVX2 and pointwiseMulAVX2 every conditional jump
// must be a back-edge to a label defined earlier in the same TEXT (loop
// control) or one of the stage-loop exits in avx2StageExits, and no macro
// may jump at all. Negative control: a snippet whose forward jump depends
// on its argument must be flagged.
func TestAVX2KernelsHaveNoDataBranches(t *testing.T) {
	src, err := os.ReadFile("vector_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	texts, flagged, used := asmDataJumps(string(src), avx2StageExits)
	for _, name := range avx2Kernels {
		if !texts[name] {
			t.Errorf("%s not found in vector_amd64.s", name)
		}
	}
	for _, f := range flagged {
		t.Errorf("vector_amd64.s: conditional jump that is neither a back-edge nor an allowed stage exit: %s", f)
	}
	for key := range avx2StageExits {
		if !used[key] {
			t.Errorf("allowlisted jump %q is not in vector_amd64.s", key)
		}
	}

	const branching = `
TEXT ·clamp(SB), NOSPLIT, $0-8
	MOVL x+0(FP), AX
	CMPL AX, $100
	JAE  done
	INCL AX
done:
	MOVL AX, ret+4(FP)
	RET
`
	if _, flagged, _ := asmDataJumps(branching, nil); len(flagged) != 1 {
		t.Errorf("negative control: the gate flags %q in a snippet with one data-dependent forward jump", flagged)
	}
}

// asmDataJumps scans a Go assembly source. It returns the TEXT symbols it
// saw, every conditional jump ("line N: symbol: JCC label") that neither
// targets a label defined earlier in the same TEXT nor is keyed in allow
// ("symbol: JCC label"), and which allow keys it met. A conditional jump
// inside a #define body is always flagged: the scan does not expand
// macros.
func asmDataJumps(src string, allow map[string]string) (texts map[string]bool, flagged []string, used map[string]bool) {
	texts, used = map[string]bool{}, map[string]bool{}
	var sym string
	var labels map[string]bool
	inMacro := false
	for i, line := range strings.Split(src, "\n") {
		code, _, _ := strings.Cut(line, "//")
		code = strings.TrimSpace(code)
		continued := strings.HasSuffix(code, "\\")
		code = strings.TrimSpace(strings.TrimSuffix(code, "\\"))
		if rest, ok := strings.CutPrefix(code, "#define "); ok {
			// Keep the body only, past the name and any parameter list.
			name, body, _ := strings.Cut(rest, " ")
			if strings.Contains(name, "(") {
				_, body, _ = strings.Cut(rest, ")")
			}
			inMacro, code = true, body
		}
		where := sym
		if inMacro {
			where = "#define"
		}
		inMacro = inMacro && continued
		if name, ok := strings.CutPrefix(code, "TEXT "); ok {
			name, _, _ = strings.Cut(name, "(SB)")
			sym = strings.TrimPrefix(name, "·")
			texts[sym], labels = true, map[string]bool{}
			continue
		}
		for _, stmt := range strings.Split(code, ";") {
			f := strings.Fields(stmt)
			if len(f) > 0 && strings.HasSuffix(f[0], ":") {
				if labels != nil {
					labels[strings.TrimSuffix(f[0], ":")] = true
				}
				f = f[1:]
			}
			if len(f) < 2 || !strings.HasPrefix(f[0], "J") || f[0] == "JMP" {
				continue
			}
			key := fmt.Sprintf("%s: %s %s", where, f[0], f[1])
			switch {
			case where != "#define" && labels[f[1]]:
			case allow[key] != "":
				used[key] = true
			default:
				flagged = append(flagged, fmt.Sprintf("line %d: %s", i+1, key))
			}
		}
	}
	return texts, flagged, used
}
