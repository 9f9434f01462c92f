package experiment

// RaceEnabled reports to the external tests whether the race detector is
// compiled in.
const RaceEnabled = raceEnabled
