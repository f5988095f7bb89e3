//! gwbench stand-in for `rand`: the workspace declares it and imports
//! nothing from it, so the stand-in is empty.
