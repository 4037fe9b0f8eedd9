// Empty: an assembly file in the package is what lets the bodyless
// declarations compile.
