// The one file of the stale-policy fixture tree that exists; its policy
// also names a gone.cpp that does not.
int presentFixture() { return 0; }
