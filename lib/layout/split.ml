let trampoline_bytes = 16

let call_split_profitable ~cold_bytes ~entry_count ~cold_entry_count =
  cold_bytes >= 4 * trampoline_bytes
  && (entry_count <= 0.0 || cold_entry_count /. entry_count < 0.01)
