//! gwbench stand-in for `parking_lot`: the workspace declares it and imports
//! nothing from it, so the stand-in is empty.
