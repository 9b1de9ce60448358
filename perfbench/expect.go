package main

import (
	"fmt"

	"nvariant/internal/httpd"
	"nvariant/internal/vos"
)

// expectation is the response a correct server gives for one URI.
type expectation struct {
	code    int
	bodyLen int
}

// expectations derives the correct response for every URI from the
// world's files, read as the configured server user: a readable file is
// 200 with its length, a missing one 404 and an unreadable one 403, each
// with httpd.ErrorBody's length.
func expectations(w *vos.World, uris []string) (map[string]expectation, error) {
	cfg, err := httpd.ParseConfig(httpd.DefaultConfigFile())
	if err != nil {
		return nil, fmt.Errorf("parse server config: %w", err)
	}
	user, ok := w.User(cfg.User)
	if !ok {
		return nil, fmt.Errorf("server user %q not in the world", cfg.User)
	}
	cred := vos.CredFor(user.UID, user.GID)
	out := make(map[string]expectation, len(uris))
	for _, uri := range uris {
		body, err := w.FS.ReadFile(cfg.DocumentRoot+uri, cred)
		if err == nil {
			out[uri] = expectation{200, len(body)}
			continue
		}
		switch e, _ := vos.AsErrno(err); e {
		case vos.ErrNoEnt:
			out[uri] = expectation{404, len(httpd.ErrorBody(404))}
		case vos.ErrAccess, vos.ErrPerm:
			out[uri] = expectation{403, len(httpd.ErrorBody(403))}
		default:
			return nil, fmt.Errorf("expectation for %s: %w", uri, err)
		}
	}
	return out, nil
}
