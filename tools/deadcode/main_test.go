package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportsOnlyUnreferenced runs the scan over a small module: a function
// nothing calls and one that only calls itself are reported; functions
// called from main, a String method fmt reaches through fmt.Stringer, and
// a method reached only through an anonymous interface assertion are not.
// A method of the module's own interface that nothing calls is reported,
// and so is the implementation only that method kept alive; a method called
// through one anonymous interface literal is called through an identical
// one.
func TestReportsOnlyUnreferenced(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example\n\ngo 1.24\n",
		"main.go": `package main

import "fmt"

type T struct{}

func (T) String() string { return "t" }
func (T) Hidden() int    { return 1 }
func (T) Unused() int    { return 2 }

func used() any { return T{} }

type Shape interface {
	Area() int
	Sides() int
}

type Sq struct{}

func (Sq) Area() int  { return 1 }
func (Sq) Sides() int { return 4 }

func (T) Depth() int { return 3 }

func depth(v any) int {
	var d interface{ Depth() int }
	d, _ = v.(interface{ Depth() int })
	return d.Depth()
}

func planted() {}

func spin(n int) int {
	if n == 0 {
		return 0
	}
	return spin(n - 1)
}

func main() {
	v := used()
	if h, ok := v.(interface{ Hidden() int }); ok {
		fmt.Println(v, h.Hidden())
	}
	var s Shape = Sq{}
	fmt.Println(s.Area(), depth(v))
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := run([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d[strings.LastIndex(d, " example.")+1:])
	}
	want := []string{
		"example.T.Unused is referenced by no non-test code",
		"example.Shape.Sides is called by no non-test code",
		"example.Sq.Sides is referenced by no non-test code",
		"example.planted is referenced by no non-test code",
		"example.spin is referenced by no non-test code",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("reported:\n%s\nwant:\n%s", strings.Join(dead, "\n"), strings.Join(want, "\n"))
	}
}
