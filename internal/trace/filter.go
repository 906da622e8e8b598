package trace

// DefaultNegligible is the set of operation names ignored when building
// pattern trees (tree.BuildOptions.Negligible). The paper (§3.1) lists
// "fileno, nmap and fscanf" as negligible; "nmap" is almost certainly a
// typo for "mmap", so both are included, along with other metadata-only
// calls of the same character.
var DefaultNegligible = map[string]bool{
	"fileno": true,
	"nmap":   true,
	"mmap":   true,
	"fscanf": true,
	"fstat":  true,
	"stat":   true,
	"ftell":  true,
}
