"""Compact integer message tags shared by the node programs.

CONGEST messages carry ``O(log n)`` bits; using small integer tags (rather
than strings) keeps every protocol message within the default bandwidth
budget of a constant number of id-sized words.
"""

MSG_FLOOD = 0
MSG_BFS = 1
MSG_ACTIVE = 2
MSG_INACTIVE = 3
MSG_CV = 4
MSG_STORM = 6
