package simd

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// xmmOperand matches an XMM, YMM or ZMM register operand.
var xmmOperand = regexp.MustCompile(`\b[XYZ]([0-9]|[12][0-9]|3[01])\b`)

// sseMnemonic matches the legacy-SSE instruction families, for
// operands (macro parameters) that name no register: packed and scalar
// float ops (ADDPS, MOVSS, CVTSD2SL), packed integer ops (PXOR,
// PSHUFB) and the XMM moves MOVD, MOVDQA and MOVDQU.
var sseMnemonic = regexp.MustCompile(`^([A-Z0-9]+(PS|PD|SS|SD)|CVT[A-Z0-9]+|P(ADD|SUB|MUL|AND|OR|XOR|CMP|SHUF|SLL|SRL|SRA|MAX|MIN|MOVMSK|BLEND|UNPCK|ACK|INSR|EXTR|ALIGNR|SADBW|TEST)[A-Z0-9]*|MOVD|MOVDQ[AU])$`)

// macroDef matches a macro definition; invocations of the macro are
// skipped, and its body is scanned where it is defined.
var macroDef = regexp.MustCompile(`^#define\s+(\w+)`)

// legacySSE returns the legacy-SSE (non-VEX) instructions of an
// assembly source, one "line N: text" entry each: an instruction
// without the V prefix that names a vector register or belongs to an
// SSE family. Between 256-bit VEX instructions such an instruction
// costs a state transition on many x86 cores.
func legacySSE(src string) []string {
	var bad []string
	macros := map[string]bool{}
	for _, line := range strings.Split(src, "\n") {
		if m := macroDef.FindStringSubmatch(line); m != nil {
			macros[m[1]] = true
		}
	}
	for n, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSuffix(strings.TrimSpace(line), "\\")
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "TEXT") ||
			strings.HasPrefix(line, "DATA") || strings.HasPrefix(line, "GLOBL") {
			continue
		}
		for _, stmt := range strings.Split(line, ";") {
			f := strings.Fields(stmt)
			if len(f) > 0 && strings.HasSuffix(f[0], ":") { // a label
				f = f[1:]
			}
			if len(f) == 0 || strings.HasPrefix(f[0], "V") ||
				macros[strings.SplitN(f[0], "(", 2)[0]] {
				continue
			}
			if xmmOperand.MatchString(strings.Join(f[1:], " ")) || sseMnemonic.MatchString(f[0]) {
				bad = append(bad, fmt.Sprintf("line %d: %s", n+1, strings.TrimSpace(stmt)))
			}
		}
	}
	return bad
}

// TestAssemblyIsVEXOnly scans simd_amd64.s for legacy-SSE
// instructions. A constant built with MOVD AX, X14 in a kernel's
// prologue once made an 8-column extrema block cost 13.6-15.7 ns
// instead of 2.8 ns: load constants with VEX instructions only.
func TestAssemblyIsVEXOnly(t *testing.T) {
	for _, bad := range []string{
		"MOVD AX, X14", "MOVQ R9, X15", "MOVSS (AX), X0", "PXOR X1, X1", "ADDPS X2, X3",
		"PXOR x, x", "CVTSD2SL X1, AX", "MOVOU (SI), X1", "SHUFPS $0, X1, X1", "a: MOVQ AX, X1",
	} {
		if len(legacySSE(bad)) != 1 {
			t.Errorf("the scan misses legacy SSE in %q", bad)
		}
	}
	for _, ok := range []string{
		"VMOVD AX, X14", "MOVQ AX, BX", "MOVL $0, CX", "VPXOR Y1, Y1, Y1", "PUSHQ AX", "MOVB DX, (DI)",
		"TEXT ·f(SB), NOSPLIT, $0-8", "DATA c<>+0x00(SB)/8, $1", "#define M(x) \\", "loop:", "PCALIGN $16",
		"#define FOLD(d) \\\n\tVMAXPS d, Y12, Y9\nFOLD(Y0)",
	} {
		if bad := legacySSE(ok); len(bad) != 0 {
			t.Errorf("the scan flags %q: %v", ok, bad)
		}
	}
	src, err := os.ReadFile("simd_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range legacySSE(string(src)) {
		t.Errorf("simd_amd64.s %s is a legacy-SSE instruction; use its VEX form", bad)
	}
}
