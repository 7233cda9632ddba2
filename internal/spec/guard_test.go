package spec

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/reorg"
)

// timingNeutral lists the core.Config fields deliberately excluded from the
// spec digest: the hazard checker (a diagnostic that observes without
// changing timing) and bus run state. Two runs differing only in these share
// one memo entry by design (DESIGN.md §13).
var timingNeutral = map[string]bool{
	"Pipeline.CheckHazards": true,
	"Bus.BusyCycles":        true,
	"Bus.Transfers":         true,
	"Bus.WordsCarried":      true,
	"Bus.Arb":               true,
	"Bus.Now":               true,
}

// TestSpecDigestCoversCoreConfig is the memo-key field-coverage guard: it
// perturbs every exported leaf of core.DefaultConfig() and requires the spec
// digest to move unless the field is on the timing-neutral allowlist — where
// it must NOT move, or caches would churn on speed knobs. Adding a field to
// core.Config (or a sub-config) fails this test until the field is either
// carried by MachineSpec/FromConfig or allowlisted here, which is exactly the
// decision a new field forces: does it change timing, or not?
func TestSpecDigestCoversCoreConfig(t *testing.T) {
	scheme := reorg.Default()
	base := FromConfig(core.DefaultConfig(), scheme).Digest()
	visited := make(map[string]bool)

	var walk func(t *testing.T, path string, typ reflect.Type, set func(cfg *core.Config) reflect.Value)
	walk = func(t *testing.T, path string, typ reflect.Type, locate func(cfg *core.Config) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.PkgPath != "" { // unexported: not configuration surface
				continue
			}
			name := f.Name
			if path != "" {
				name = path + "." + name
			}
			if f.Type.Kind() == reflect.Struct {
				// Recurse into sub-config structs (pipeline, caches, bus).
				idx := i
				walk(t, name, f.Type, func(cfg *core.Config) reflect.Value {
					return locate(cfg).Field(idx)
				})
				continue
			}
			idx := i
			cfg := core.DefaultConfig()
			fv := locate(&cfg).Field(idx)
			if !perturb(fv) {
				t.Errorf("%s: kind %s has no perturbation rule — teach the guard about it", name, f.Type.Kind())
				continue
			}
			visited[name] = true
			got := FromConfig(cfg, scheme).Digest()
			if timingNeutral[name] {
				if got != base {
					t.Errorf("%s is allowlisted as timing-neutral but moves the digest — remove it from the allowlist", name)
				}
			} else if got == base {
				t.Errorf("%s: perturbation left the spec digest unchanged — carry the field in MachineSpec/FromConfig or allowlist it as timing-neutral", name)
			}
		}
	}
	walk(t, "", reflect.TypeOf(core.Config{}), func(cfg *core.Config) reflect.Value {
		return reflect.ValueOf(cfg).Elem()
	})

	for name := range timingNeutral {
		if !visited[name] {
			t.Errorf("allowlist entry %s was never visited — stale after a core.Config change?", name)
		}
	}
}

// perturb flips the value to something different in place, by kind. Returns
// false for kinds it does not know how to move.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			return []reflect.Value{reflect.Zero(v.Type().Out(0))}
		}))
	default:
		return false
	}
	return true
}
