package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"lasagne/internal/backend"
	"lasagne/internal/ir"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/validate"
)

// genPrograms is how many validate.GenProgram programs translate-cold draws
// per seed: many small modules, where the fixed per-module cost dominates.
const genPrograms = 128

// The generated programs are drawn stratified by size, so that every seed
// translates the same mix of small and large modules and its figures move
// with the program, not with the luck of the draw: a program's translation
// time follows its x86-64 .text size closely (correlation 0.93), and
// unstratified draws of 128 programs differed by about 10% in total
// translation time and 12% in the 90th percentile between seeds.
// genSizeEdges cut .text sizes into 16 classes of equal probability, and
// genSizeCap leaves out the largest 1%; both are quantiles of 4,000
// programs (GenProgram seeds 900000000 to 900003999) as the compiler built
// them when the benchmark was written. Each class holds genPrograms/16
// programs.
var genSizeEdges = []int{395, 419, 442, 470, 546, 575, 619, 673, 722, 765, 829, 902, 987, 1089, 1306}

const genSizeCap = 1716

// Every seed compiles at least genCandidates programs, so that set-up costs
// the same whatever the seed; the classes fill after about 250 on average,
// and among 320 a class falls short about once in 60 seeds, which then
// compile more, up to genMaxDraws.
const (
	genCandidates = 320
	genMaxDraws   = 64 * genPrograms
)

// program is one translation input.
type program struct {
	name   string
	src    string
	x86    *obj.File // the x86-64 input object
	native *obj.File // the natively compiled Arm64 object (kernels only)
}

// kernels is the fixed kernel set: the five Phoenix kernels and spsc_ring.
func kernels() []phoenix.Benchmark {
	return append(phoenix.All(), phoenix.LockFree()...)
}

// kernelSources lists the kernels as uncompiled programs.
func kernelSources() []*program {
	var ps []*program
	for _, k := range kernels() {
		ps = append(ps, &program{name: k.Name, src: k.Source})
	}
	return ps
}

// compile builds a program the way the evaluation does: minic, the
// standard optimisation pipeline, then the x86-64 backend (and the Arm64
// backend for the native binary when native is set).
func compile(name, src string, native bool) (*program, error) {
	m, err := minic.Compile(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	if err := opt.Optimize(m); err != nil {
		return nil, fmt.Errorf("%s: optimise: %w", name, err)
	}
	p := &program{name: name, src: src}
	if p.x86, err = backend.Compile(m.Clone(), "x86-64"); err != nil {
		return nil, fmt.Errorf("%s: x86-64 backend: %w", name, err)
	}
	if native {
		if p.native, err = backend.Compile(m, "arm64"); err != nil {
			return nil, fmt.Errorf("%s: arm64 backend: %w", name, err)
		}
	}
	return p, nil
}

// kernelPrograms compiles the six kernels.
func kernelPrograms(native bool) ([]*program, error) {
	var ps []*program
	for _, k := range kernels() {
		p, err := compile(k.Name, k.Source, native)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// genProgramsFor compiles the generated programs of a benchmark seed: it
// compiles GenProgram(seed*100000 + i) for i = 0, 1, ... and keeps each
// program whose size class is not yet full, until all are and at least
// genCandidates programs have been compiled.
func genProgramsFor(seed int64) ([]*program, error) {
	per := genPrograms / (len(genSizeEdges) + 1)
	full := make([]int, len(genSizeEdges)+1)
	var ps []*program
	for i := int64(0); len(ps) < genPrograms || i < genCandidates; i++ {
		if i == genMaxDraws {
			return nil, fmt.Errorf("seed %d: %d generated programs did not fill every size class", seed, i)
		}
		s := seed*100000 + i
		p, err := compile(fmt.Sprintf("gen%d", s), validate.GenProgram(s), false)
		if err != nil {
			return nil, err
		}
		text := p.x86.Section(".text")
		if text == nil {
			return nil, fmt.Errorf("%s: no .text section", p.name)
		}
		n := len(text.Data)
		if n > genSizeCap {
			continue
		}
		c := sort.SearchInts(genSizeEdges, n)
		if full[c] == per {
			continue
		}
		full[c]++
		ps = append(ps, p)
	}
	return ps, nil
}

// sourceOutput is the source-semantics reference: the IR interpreter runs
// the unoptimised minic module, so neither the optimiser, the backends,
// the translator nor the simulator takes part. spsc_ring's bounded ring
// cannot run on that sequential interpreter (the producer would wait for a
// consumer that never runs), so its output is computed in closed form.
func sourceOutput(name, src string) (string, error) {
	if name == "spsc_ring" {
		return spscOutput(), nil
	}
	m, err := minic.Compile(name, src)
	if err != nil {
		return "", err
	}
	ip := ir.NewInterp(m)
	if _, err := ip.Run("main"); err != nil {
		return "", fmt.Errorf("%s: interpreter: %w", name, err)
	}
	return ip.Out.String(), nil
}

// spscOutput is what spsc_ring must print: the consumer folds the 2048
// items in FIFO order into its checksum, then main prints head - tail, which
// is 0 once both threads finish.
func spscOutput() string {
	const mod = 1000000007
	var c int64
	for i := int64(0); i < 2048; i++ {
		item := (i*2654435761 + 12345) % mod
		c = (c*31 + item) % mod
	}
	return fmt.Sprintf("%d\n%d\n", c, 0)
}

// reference is what a program must print, and whether the known
// opt.Reassociate fault hits it.
type reference struct {
	out   string
	fault bool
}

// references computes every program's reference.
func references(ps []*program) (map[string]reference, error) {
	refs := map[string]reference{}
	for _, p := range ps {
		out, err := sourceOutput(p.name, p.src)
		if err != nil {
			return nil, err
		}
		fault, err := reassociateFault(p.name, p.src)
		if err != nil {
			return nil, err
		}
		refs[p.name] = reference{out, fault}
	}
	return refs, nil
}

// reassociateFault reports whether the standard pipeline, run with the IR
// verifier after every pass, rejects the program's module right after
// reassociate. That is the known fault (README, "Known fault"): binaries
// built from such a module may print something the source does not mean.
func reassociateFault(name, src string) (bool, error) {
	m, err := minic.Compile(name, src)
	if err != nil {
		return false, err
	}
	var pe *opt.PassError
	err = opt.RunPipeline(m, opt.StandardPipeline, true)
	return errors.As(err, &pe) && pe.Pass == "reassociate", nil
}

// knownFault reports whether err is a wrong output that the known fault
// explains.
func knownFault(ref reference, err error) bool {
	var mm *mismatch
	return ref.fault && errors.As(err, &mm)
}

// mismatch is an output that differs from its reference.
type mismatch struct{ got, want string }

func (m *mismatch) Error() string {
	return fmt.Sprintf("output %q, want %q", abbreviate(m.got), abbreviate(m.want))
}

// outputErr reports how got differs from the reference want.
func outputErr(got, want string) error {
	if got == want {
		return nil
	}
	return &mismatch{got, want}
}

func abbreviate(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}
