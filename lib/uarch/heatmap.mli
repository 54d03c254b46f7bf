(** Instruction-access heat maps (paper Fig 7).

    A 2D histogram of fetch activity: rows are address buckets across
    the binary image, columns are time buckets (request sequence).
    Rendered as ASCII art and as CSV for external plotting. *)

type t

(** [create ~lo ~hi ~rows ~cols ~total_requests] builds a collector for
    addresses in [\[lo, hi)]. Column [c] holds the fetches of requests
    [c * k] to [c * k + k - 1], where [k = max 1 (total_requests / cols)];
    the last column also holds every later request. Raises
    [Invalid_argument] unless [rows >= 1] and [cols >= 1]. *)
val create : lo:int -> hi:int -> rows:int -> cols:int -> total_requests:int -> t

(** [sink t] attaches the collector to an execution run. *)
val sink : t -> Exec.Event.sink

(** [cell t ~row ~col] is the accumulated byte count of a cell. *)
val cell : t -> row:int -> col:int -> int

val rows : t -> int

val cols : t -> int

(** [render t] draws the map, dark-to-light density (space, [.], [:],
    [*], [#], [@]), one row per line, highest addresses first (like the
    paper's Y axis). *)
val render : t -> string

(** [to_csv t] emits "row,col,count" lines for non-zero cells. *)
val to_csv : t -> string

(** [occupied_rows t] counts address buckets that were ever touched — a
    scalar "code footprint spread" for comparisons. *)
val occupied_rows : t -> int
