package all

import (
	"reflect"
	"testing"
)

func TestTable(t *testing.T) {
	if got, want := Names(), []string{"cgra", "iocore", "pimdram"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		be, ok := Lookup(name)
		if !ok || be == nil {
			t.Fatalf("Lookup(%q) = %v, %v", name, be, ok)
		}
		if w := be.Caps().MaxPortWidth; w < 1 {
			t.Fatalf("%s: MaxPortWidth %d < 1", name, w)
		}
	}
	if _, ok := Lookup("no-such-backend"); ok {
		t.Fatal("Lookup of an unknown name succeeded")
	}
}
