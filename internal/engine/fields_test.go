package engine

import (
	"reflect"
	"strings"
	"testing"
)

// TestFieldsMatchRequest checks the fields table against Request: one
// declaration per JSON key but op, scenario and params, in struct order,
// named after the key, with its slot pointing at that struct field.
func TestFieldsMatchRequest(t *testing.T) {
	var r Request
	slots := r.slots()
	rv := reflect.ValueOf(&r).Elem()
	i := 0
	for j := range rv.NumField() {
		name, _, _ := strings.Cut(rv.Type().Field(j).Tag.Get("json"), ",")
		if name == "op" || name == "scenario" || name == "params" {
			continue
		}
		if i >= len(fields) {
			t.Fatalf("Request field %s has no declaration", name)
		}
		if fields[i].name != name {
			t.Errorf("declaration %d is %q, want %q", i, fields[i].name, name)
		}
		if addr := rv.Field(j).Addr().Interface(); slots[i] != addr {
			t.Errorf("slot %d (%s) does not point at Request.%s", i, fields[i].name, rv.Type().Field(j).Name)
		}
		i++
	}
	if i != len(fields) {
		t.Errorf("%d declarations for %d Request fields", len(fields), i)
	}
}
