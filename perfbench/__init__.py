"""Wire-level benchmark of the Blowfish serving stack (see NOTES.md)."""
