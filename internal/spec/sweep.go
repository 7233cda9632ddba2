package spec

// Sweep definitions for the design-space explorer (cmd/mipsx-explore): a
// base machine spec plus a list of axes, each naming one spec field by its
// JSON path and the values to sweep it over. Points enumerates the cross
// product row-major (last axis fastest), patching each value into the base's
// canonical JSON — so an axis can reach any spec field without this package
// naming them twice, and a typo'd path fails loudly instead of sweeping
// nothing. The one non-field axis is "scheme", which sets the branch scheme
// as a unit (slots and squash mode must agree with the toolchain).

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/jsondoc"
	"repro/internal/reorg"
)

// Axis is one swept dimension: the dot-separated JSON path of a spec field
// ("icache.sets", "ecache.repl", "bus.latency", or the virtual "scheme")
// and the values it takes.
type Axis struct {
	Path   string `json:"path"`
	Values []any  `json:"values"`
}

// Sweep is a full sweep definition. A nil Base sweeps around Default().
type Sweep struct {
	Base *MachineSpec `json:"base,omitempty"`
	Axes []Axis       `json:"axes"`
}

// Table1Axis is the paper's own sweep axis: the six Table 1 branch schemes.
// It is mipsx-explore's default sweep.
func Table1Axis() Axis {
	ax := Axis{Path: "scheme"}
	for _, sc := range reorg.Table1Schemes() {
		ax.Values = append(ax.Values, sc.String())
	}
	return ax
}

// Coord is one axis assignment of a sweep point.
type Coord struct {
	Path  string `json:"path"`
	Value any    `json:"value"`
}

// Point is one enumerated design point: the realized spec and the axis
// assignments that produced it.
type Point struct {
	Spec   MachineSpec
	Coords []Coord
}

// Label renders the point's axis assignments ("scheme=2/optional
// icache.sets=8"); the base point of an axisless sweep is "base".
func (p Point) Label() string {
	if len(p.Coords) == 0 {
		return "base"
	}
	parts := make([]string, len(p.Coords))
	for i, c := range p.Coords {
		parts[i] = fmt.Sprintf("%s=%v", c.Path, c.Value)
	}
	return strings.Join(parts, " ")
}

// Patch returns a copy of the spec with the field at the dot-separated JSON
// path set to value, validated. The virtual path "scheme" takes a branch
// scheme name (ParseScheme forms) and sets slots and squash together.
func (ms MachineSpec) Patch(path string, value any) (MachineSpec, error) {
	if path == "scheme" {
		s, ok := value.(string)
		if !ok {
			return MachineSpec{}, fmt.Errorf("spec: scheme axis value %v is not a string", value)
		}
		sc, err := ParseScheme(s)
		if err != nil {
			return MachineSpec{}, err
		}
		return ms.WithScheme(sc), nil
	}
	var m map[string]any
	if err := json.Unmarshal(ms.CanonicalJSON(), &m); err != nil {
		return MachineSpec{}, fmt.Errorf("spec: %w", err)
	}
	segs := strings.Split(path, ".")
	cur := m
	for _, seg := range segs[:len(segs)-1] {
		child, ok := cur[seg].(map[string]any)
		if !ok {
			if _, present := cur[seg]; present {
				// The segment exists but is a scalar — a genuinely wrong path.
				return MachineSpec{}, fmt.Errorf("spec: unknown axis path %q (no object at %q)", path, seg)
			}
			// Absent objects are created: optional sub-specs (scenario) are
			// omitted from the canonical JSON when unset, yet their fields
			// are legitimate axes. Known optional sub-specs seed from their
			// named default so patching one field yields a valid spec; a
			// typo'd segment still fails loudly — the synthesized object
			// reaches Parse, which rejects unknown fields.
			child = map[string]any{}
			if seg == "scenario" {
				b, err := json.Marshal(DefaultScenario())
				if err != nil {
					return MachineSpec{}, fmt.Errorf("spec: %w", err)
				}
				if err := json.Unmarshal(b, &child); err != nil {
					return MachineSpec{}, fmt.Errorf("spec: %w", err)
				}
			}
			cur[seg] = child
		}
		cur = child
	}
	// Setting an unknown leaf adds a field Parse rejects (it decodes
	// strictly), so a typo'd path errors instead of silently sweeping
	// nothing.
	cur[segs[len(segs)-1]] = value
	b, err := json.Marshal(m)
	if err != nil {
		return MachineSpec{}, fmt.Errorf("spec: %w", err)
	}
	patched, err := Parse(b)
	if err != nil {
		return MachineSpec{}, fmt.Errorf("axis %s=%v: %w", path, value, err)
	}
	return patched, nil
}

// MaxSweepPoints caps a sweep's cross product. The largest sweep in the
// repository has 108 points; a cross product far past the cap would exhaust
// memory while it is enumerated, before any point runs.
const MaxSweepPoints = 4096

// Points enumerates the sweep's cross product in row-major order (first axis
// slowest), deduplicated by spec digest (an axis value equal to the base
// collapses), every point validated. Any invalid point fails the whole
// enumeration — a sweep definition's errors should surface before the first
// simulation, not between cells — and so does a cross product of more than
// MaxSweepPoints points, before any is built.
func (s Sweep) Points() ([]Point, error) {
	base := Default()
	if s.Base != nil {
		base = *s.Base
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	n := 1
	for _, ax := range s.Axes {
		if ax.Path == "" || len(ax.Values) == 0 {
			return nil, fmt.Errorf("spec: axis %q needs a path and at least one value", ax.Path)
		}
		// n ≤ MaxSweepPoints throughout, so this cannot overflow.
		if len(ax.Values) > MaxSweepPoints/n {
			return nil, fmt.Errorf("spec: sweep has more than %d points", MaxSweepPoints)
		}
		n *= len(ax.Values)
	}
	points := []Point{{Spec: base}}
	for _, ax := range s.Axes {
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				ps, err := p.Spec.Patch(ax.Path, v)
				if err != nil {
					return nil, err
				}
				coords := make([]Coord, len(p.Coords), len(p.Coords)+1)
				copy(coords, p.Coords)
				next = append(next, Point{Spec: ps, Coords: append(coords, Coord{ax.Path, v})})
			}
		}
		points = next
	}
	seen := make(map[string]bool, len(points))
	out := make([]Point, 0, len(points))
	for _, p := range points {
		d := p.Spec.Digest()
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, p)
	}
	return out, nil
}

// ParseSweep reads a sweep definition from JSON, rejecting unknown fields
// and trailing data.
func ParseSweep(b []byte) (Sweep, error) {
	var s Sweep
	if err := jsondoc.Decode(b, &s); err != nil {
		return Sweep{}, fmt.Errorf("spec: sweep: %w", err)
	}
	return s, nil
}

// ParseAxis reads the flag form "path=v1,v2,...". Each value parses as a
// JSON scalar when it can (numbers, booleans) and stays a string otherwise
// ("2/optional", "fifo").
func ParseAxis(s string) (Axis, error) {
	path, vals, ok := strings.Cut(s, "=")
	if !ok || path == "" || vals == "" {
		return Axis{}, fmt.Errorf("spec: axis %q, want path=v1,v2,...", s)
	}
	ax := Axis{Path: path}
	for _, tok := range strings.Split(vals, ",") {
		var v any
		if err := json.Unmarshal([]byte(tok), &v); err != nil {
			v = tok
		}
		ax.Values = append(ax.Values, v)
	}
	return ax, nil
}
