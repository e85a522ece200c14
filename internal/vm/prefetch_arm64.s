#include "textflag.h"

// func prefetch(p *byte)
TEXT ·prefetch(SB), NOSPLIT, $0-8
	MOVD	p+0(FP), R0
	PRFM	(R0), PLDL1KEEP
	RET
