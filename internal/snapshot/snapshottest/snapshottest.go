// Package snapshottest provides helpers for testing checkpointed
// domains. Its one check backs the checkpoint driver's promise that a
// config digest is complete by construction: perturb every leaf of a
// domain's defaulted config and expect each resume to be refused.
package snapshottest

import (
	"fmt"
	"reflect"
)

// Leaf is one perturbation of a config.
type Leaf[T any] struct {
	// Path names the changed field, e.g. "Wafer.TileEdge" or
	// "Rates.MTBF[2]".
	Path string
	// Config is the input config with only that field changed.
	Config T
}

// Leaves returns one perturbed copy of cfg per leaf field, walking
// nested structs and arrays element by element. Integers grow by one,
// non-zero floats by half and zero floats become one, bools flip and
// strings grow, so a perturbed config stays plausible for the domain
// to build. It panics on any other kind: pointers, slices, maps,
// interfaces and funcs have no place in a config whose printed form
// is its digest.
//
// This package is test support: only _test.go files import it, from
// the packages whose checkpoint digests it exercises.
func Leaves[T any](cfg T) []Leaf[T] {
	var out []Leaf[T]
	// at locates the field being walked inside any value of type T.
	var walk func(path string, at func(reflect.Value) reflect.Value, v reflect.Value)
	walk = func(path string, at func(reflect.Value) reflect.Value, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, func(r reflect.Value) reflect.Value { return at(r).Field(i) }, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), func(r reflect.Value) reflect.Value { return at(r).Index(i) }, v.Index(i))
			}
		default:
			leaf := Leaf[T]{Path: path, Config: cfg}
			perturb(path, at(reflect.ValueOf(&leaf.Config).Elem()))
			out = append(out, leaf)
		}
	}
	walk("", func(r reflect.Value) reflect.Value { return r }, reflect.ValueOf(cfg))
	return out
}

// perturb changes one settable scalar in place.
func perturb(path string, f reflect.Value) {
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		if x := f.Float(); x != 0 {
			f.SetFloat(x * 1.5)
		} else {
			f.SetFloat(1)
		}
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "'")
	default:
		panic(fmt.Sprintf("snapshottest: %s has kind %s, which a config digest cannot cover", path, f.Kind()))
	}
}
