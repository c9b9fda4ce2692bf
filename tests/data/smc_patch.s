# A loop that swaps two adjacent instruction words, a site and its donor,
# on every iteration and then executes both. They do not commute, so a
# translation made before a swap computes a different $t1: the
# accelerated system, which replays the loop from its reconfiguration
# cache, is not transparent here, while fast and slow dispatch must still
# agree bit for bit (dimsim-fuzz --replay FILE --cmp-dispatch).
        .text
main:   li $t1, 3
        li $s0, 40
loop:   la $at, patch
        lw $t0, 0($at)
        lw $v1, 4($at)
        sw $v1, 0($at)
        sw $t0, 4($at)
patch:  addiu $t1, $t1, 1
        sll $t1, $t1, 1
        andi $t1, $t1, 0xffff
        addiu $s0, $s0, -1
        bnez $s0, loop
        move $a0, $t1
        li $v0, 1
        syscall
        li $v0, 10
        syscall
