package cosmotools

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Config is a parsed INI-style configuration: named sections of key=value
// pairs. The simulation input deck and the CosmoTools configuration file
// both use this format ("That file has all the details about the separate
// analysis tools, at which time steps to run them, and which parameters to
// use for each", §3).
type Config struct {
	sections map[string]map[string]string
	order    []string
}

// ParseConfig reads an INI-style stream:
//
//	# comment
//	[section]
//	key = value
//
// Keys before any section header go into the section "" (global).
func ParseConfig(r io.Reader) (*Config, error) {
	cfg := &Config{sections: map[string]map[string]string{}}
	current := ""
	cfg.sections[current] = map[string]string{}
	cfg.order = append(cfg.order, current)
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("config line %d: malformed section header %q", lineNo, line)
			}
			current = strings.TrimSpace(line[1 : len(line)-1])
			if current == "" {
				return nil, fmt.Errorf("config line %d: empty section name", lineNo)
			}
			if _, ok := cfg.sections[current]; !ok {
				cfg.sections[current] = map[string]string{}
				cfg.order = append(cfg.order, current)
			}
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("config line %d: expected key=value, got %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("config line %d: empty key", lineNo)
		}
		cfg.sections[current][key] = val
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ParseConfigFile reads a config from a path.
func ParseConfigFile(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// SectionNames returns the non-empty section names in file order.
func (c *Config) SectionNames() []string {
	var out []string
	for _, name := range c.order {
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// Section returns a copy of the named section's key-value pairs (nil-safe:
// missing sections return an empty map).
func (c *Config) Section(name string) map[string]string {
	out := map[string]string{}
	for k, v := range c.sections[name] {
		out[k] = v
	}
	return out
}

// --- typed parameter helpers shared by the algorithm adapters ---

func parseInt(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }

func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// FloatParam reads a float key with a default.
func FloatParam(params map[string]string, key string, def float64) (float64, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	f, err := parseFloat(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: %w", key, v, err)
	}
	return f, nil
}

// IntParam reads an int key with a default.
func IntParam(params map[string]string, key string, def int) (int, error) {
	v, ok := params[key]
	if !ok {
		return def, nil
	}
	n, err := parseInt(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: %w", key, v, err)
	}
	return n, nil
}
