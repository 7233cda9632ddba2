package reorg

// RequireExactSlots is requireExactSlots for the external test package.
var RequireExactSlots = requireExactSlots
