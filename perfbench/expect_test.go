package main

import (
	"testing"

	"nvariant/internal/httpd"
	"nvariant/internal/vos"
)

func TestExpectationTable(t *testing.T) {
	w, err := vos.NewWorld()
	if err != nil {
		t.Fatal(err)
	}
	index, err := w.FS.ReadFile("/var/www/index.html", vos.CredFor(vos.Root, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeDoc(w, "/large-0.txt", make([]byte, 1234)); err != nil {
		t.Fatal(err)
	}
	got, err := expectations(w, []string{"/index.html", secretURI, "/missing-0.html", "/large-0.txt"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]expectation{
		"/index.html":     {200, len(index)},
		secretURI:         {403, len(httpd.ErrorBody(403))},
		"/missing-0.html": {404, len(httpd.ErrorBody(404))},
		"/large-0.txt":    {200, 1234},
	}
	for uri, e := range want {
		if got[uri] != e {
			t.Errorf("%s: got %+v, want %+v", uri, got[uri], e)
		}
	}
}

func TestSmallWorkloadDrawsSmallestDocuments(t *testing.T) {
	w, _ := workloadByName("group-small")
	in, err := generate(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.uris) != smallDocs {
		t.Fatalf("%d uris, want %d", len(in.uris), smallDocs)
	}
	for i, e := range in.expect {
		if e.code != 200 || e.bodyLen < 30 || e.bodyLen > 64 {
			t.Errorf("%s: %+v, want a 200 of 30-64 B", in.uris[i], e)
		}
	}
}
