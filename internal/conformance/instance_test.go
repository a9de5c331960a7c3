package conformance

import (
	"fmt"
	"strconv"
	"strings"

	"adjarray/internal/value"
)

// NumTriples counts stored incidence entries: one Eout triple plus one
// Ein triple per edge. Shrinking minimizes this quantity.
func (in Instance) NumTriples() int { return 2 * len(in.Edges) }

// DecodeInstance parses Encode's output. Lines starting with '#' are
// comments — writeArtifact prepends one carrying the divergence report,
// so a downloaded CI artifact replays without editing.
func DecodeInstance(data []byte) (Instance, error) {
	var in Instance
	for ln, line := range strings.Split(string(data), "\n") {
		if t := strings.TrimSpace(line); t == "" || strings.HasPrefix(t, "#") {
			continue
		}
		fields, err := splitQuoted(line)
		if err != nil {
			return Instance{}, fmt.Errorf("conformance: line %d: %w", ln+1, err)
		}
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return Instance{}, fmt.Errorf("conformance: line %d: malformed name", ln+1)
			}
			in.Name = fields[1]
		case "splits":
			for _, f := range fields[1:] {
				s, err := strconv.Atoi(f)
				if err != nil {
					return Instance{}, fmt.Errorf("conformance: line %d: split %q: %w", ln+1, f, err)
				}
				in.Splits = append(in.Splits, s)
			}
		case "edge":
			if len(fields) != 6 {
				return Instance{}, fmt.Errorf("conformance: line %d: edge wants 5 fields, got %d", ln+1, len(fields)-1)
			}
			out, err := value.ParseFloat(fields[4])
			if err != nil {
				return Instance{}, fmt.Errorf("conformance: line %d: out value: %w", ln+1, err)
			}
			iv, err := value.ParseFloat(fields[5])
			if err != nil {
				return Instance{}, fmt.Errorf("conformance: line %d: in value: %w", ln+1, err)
			}
			in.Edges = append(in.Edges, Edge{Key: fields[1], Src: fields[2], Dst: fields[3], Out: out, In: iv})
		default:
			return Instance{}, fmt.Errorf("conformance: line %d: unknown record %q", ln+1, fields[0])
		}
	}
	in.normalize()
	return in, nil
}

// splitQuoted tokenizes a record line: a bare head word followed by
// space-separated tokens, each either bare or Go-quoted.
func splitQuoted(line string) ([]string, error) {
	var out []string
	rest := strings.TrimSpace(line)
	for rest != "" {
		if rest[0] == '"' {
			// Find the closing quote, honoring escapes.
			end := -1
			for i := 1; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					continue
				}
				if rest[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quote in %q", line)
			}
			tok, err := strconv.Unquote(rest[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad quoted token: %w", err)
			}
			out = append(out, tok)
			rest = strings.TrimLeft(rest[end+1:], " ")
			continue
		}
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			out = append(out, rest)
			break
		}
		out = append(out, rest[:sp])
		rest = strings.TrimLeft(rest[sp+1:], " ")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	return out, nil
}
