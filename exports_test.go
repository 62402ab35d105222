package masksim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportKeep lists the exported functions and methods under internal/ and
// sim/ that may stay although no program names them, each with the reason.
// Keys are "<dir>.<Name>" or "<dir>.<Recv>.<Name>".
var exportKeep = map[string]string{
	"internal/cache.New":                         "component constructor; whether the seven go or stay is decided with the Renew path (ROADMAP item 15)",
	"internal/dram.New":                          "component constructor (ROADMAP item 15)",
	"internal/engine.New":                        "component constructor (ROADMAP item 15)",
	"internal/gpu.New":                           "component constructor (ROADMAP item 15)",
	"internal/ptw.New":                           "component constructor (ROADMAP item 15)",
	"internal/tlb.NewL1":                         "component constructor (ROADMAP item 15)",
	"internal/tlb.NewL2":                         "component constructor (ROADMAP item 15)",
	"internal/snapshot.Seal":                     "tests in other packages forge checkpoint images with it; the checkpoint-field fuzzer (ROADMAP item 21) re-seals with it",
	"internal/faultinject.CorruptCheckpointByte": "tests in other packages corrupt checkpoint files with it",
	"internal/memreq.Pool.Live":                  "the request-conservation oracle tests assert",
	"internal/experiments.RunError.Unwrap":       "satisfies the interface errors.Is and errors.As unwrap a run's error through",
}

// TestExportsHaveCallers fails on an exported top-level function or method
// declared under internal/ or sim/ whose name no non-test Go file of the
// module uses outside its own declaration: an API only tests reach is code
// the simulator carries for nothing. Names are matched as identifiers, not
// resolved, so a name that some other declaration also uses counts as used;
// that can hide a dead function but never flags a live one.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct {
		key, pos string
	}
	var decls []decl
	idents := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[id.Name]++
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") && dir != "sim" {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				key = dir + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if _, keep := exportKeep[d.key]; !keep && idents[name] < 2 {
			t.Errorf("%s: %s has no caller outside tests; delete it, or keep it in exportKeep with the reason", d.pos, d.key)
		}
	}
	for key := range exportKeep {
		if !declared[key] {
			t.Errorf("exportKeep lists %s, which is not declared", key)
		}
	}
}

// recvName returns the type name of a method receiver: T, *T or T[P].
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
