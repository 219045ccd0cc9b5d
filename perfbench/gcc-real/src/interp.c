/* A small stack-machine interpreter. The dispatch `switch` over dense
 * opcodes is what gcc lowers to a jump table in .rodata; the tokenizer's
 * character-class switch gives a second, sparser one. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum op {
    OP_PUSH, OP_POP, OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MOD, OP_NEG,
    OP_DUP, OP_SWAP, OP_OVER, OP_JMP, OP_JZ, OP_JNZ, OP_LT, OP_GT,
    OP_EQ, OP_AND, OP_OR, OP_XOR, OP_SHL, OP_SHR, OP_LOAD, OP_STORE,
    OP_CALL, OP_RET, OP_PRINT, OP_HALT
};

struct vm {
    long stack[256];
    int sp;
    long mem[64];
    int rstack[32];
    int rsp;
    long steps;
};

static int run(struct vm *m, const long *code, int len)
{
    int pc = 0;
    while (pc >= 0 && pc < len) {
        long op = code[pc++];
        long a, b;
        m->steps++;
        switch (op) {
        case OP_PUSH: m->stack[m->sp++] = code[pc++]; break;
        case OP_POP: m->sp--; break;
        case OP_ADD: b = m->stack[--m->sp]; m->stack[m->sp - 1] += b; break;
        case OP_SUB: b = m->stack[--m->sp]; m->stack[m->sp - 1] -= b; break;
        case OP_MUL: b = m->stack[--m->sp]; m->stack[m->sp - 1] *= b; break;
        case OP_DIV: b = m->stack[--m->sp]; m->stack[m->sp - 1] = b ? m->stack[m->sp - 1] / b : 0; break;
        case OP_MOD: b = m->stack[--m->sp]; m->stack[m->sp - 1] = b ? m->stack[m->sp - 1] % b : 0; break;
        case OP_NEG: m->stack[m->sp - 1] = -m->stack[m->sp - 1]; break;
        case OP_DUP: m->stack[m->sp] = m->stack[m->sp - 1]; m->sp++; break;
        case OP_SWAP: a = m->stack[m->sp - 1]; m->stack[m->sp - 1] = m->stack[m->sp - 2]; m->stack[m->sp - 2] = a; break;
        case OP_OVER: m->stack[m->sp] = m->stack[m->sp - 2]; m->sp++; break;
        case OP_JMP: pc = (int)code[pc]; break;
        case OP_JZ: a = m->stack[--m->sp]; pc = a ? pc + 1 : (int)code[pc]; break;
        case OP_JNZ: a = m->stack[--m->sp]; pc = a ? (int)code[pc] : pc + 1; break;
        case OP_LT: b = m->stack[--m->sp]; m->stack[m->sp - 1] = m->stack[m->sp - 1] < b; break;
        case OP_GT: b = m->stack[--m->sp]; m->stack[m->sp - 1] = m->stack[m->sp - 1] > b; break;
        case OP_EQ: b = m->stack[--m->sp]; m->stack[m->sp - 1] = m->stack[m->sp - 1] == b; break;
        case OP_AND: b = m->stack[--m->sp]; m->stack[m->sp - 1] &= b; break;
        case OP_OR: b = m->stack[--m->sp]; m->stack[m->sp - 1] |= b; break;
        case OP_XOR: b = m->stack[--m->sp]; m->stack[m->sp - 1] ^= b; break;
        case OP_SHL: b = m->stack[--m->sp]; m->stack[m->sp - 1] <<= (b & 63); break;
        case OP_SHR: b = m->stack[--m->sp]; m->stack[m->sp - 1] >>= (b & 63); break;
        case OP_LOAD: a = m->stack[m->sp - 1]; m->stack[m->sp - 1] = m->mem[a & 63]; break;
        case OP_STORE: a = m->stack[--m->sp]; b = m->stack[--m->sp]; m->mem[a & 63] = b; break;
        case OP_CALL: m->rstack[m->rsp++] = pc + 1; pc = (int)code[pc]; break;
        case OP_RET: pc = m->rstack[--m->rsp]; break;
        case OP_PRINT: printf("%ld\n", m->stack[--m->sp]); break;
        case OP_HALT: return 0;
        default: return -1;
        }
        if (m->sp < 0 || m->sp > 250 || m->rsp < 0 || m->rsp > 30)
            return -2;
    }
    return 0;
}

enum tok { T_NUM, T_WORD, T_PUNCT, T_SPACE, T_END };

static enum tok classify(int c)
{
    switch (c) {
    case '0': case '1': case '2': case '3': case '4':
    case '5': case '6': case '7': case '8': case '9':
        return T_NUM;
    case ' ': case '\t': case '\n': case '\r':
        return T_SPACE;
    case '+': case '-': case '*': case '/': case '%': case '<': case '>':
    case '=': case '&': case '|': case '^': case '!': case '.':
        return T_PUNCT;
    case 0:
        return T_END;
    default:
        return T_WORD;
    }
}

static const struct { const char *name; enum op op; } words[] = {
    {"dup", OP_DUP}, {"swap", OP_SWAP}, {"over", OP_OVER}, {"drop", OP_POP},
    {"and", OP_AND}, {"or", OP_OR}, {"xor", OP_XOR}, {"shl", OP_SHL},
    {"shr", OP_SHR}, {"load", OP_LOAD}, {"store", OP_STORE}, {"neg", OP_NEG},
};

static int compile(const char *src, long *code, int cap)
{
    int n = 0;
    const char *p = src;
    while (n < cap - 2) {
        enum tok t = classify((unsigned char)*p);
        if (t == T_END)
            break;
        if (t == T_SPACE) { p++; continue; }
        if (t == T_NUM) {
            code[n++] = OP_PUSH;
            code[n++] = strtol(p, (char **)&p, 10);
            continue;
        }
        if (t == T_PUNCT) {
            switch (*p++) {
            case '+': code[n++] = OP_ADD; break;
            case '-': code[n++] = OP_SUB; break;
            case '*': code[n++] = OP_MUL; break;
            case '/': code[n++] = OP_DIV; break;
            case '%': code[n++] = OP_MOD; break;
            case '<': code[n++] = OP_LT; break;
            case '>': code[n++] = OP_GT; break;
            case '=': code[n++] = OP_EQ; break;
            case '&': code[n++] = OP_AND; break;
            case '|': code[n++] = OP_OR; break;
            case '^': code[n++] = OP_XOR; break;
            case '.': code[n++] = OP_PRINT; break;
            default: return -1;
            }
            continue;
        }
        const char *start = p;
        while (classify((unsigned char)*p) == T_WORD)
            p++;
        size_t len = (size_t)(p - start);
        int found = 0;
        for (size_t i = 0; i < sizeof words / sizeof words[0]; i++) {
            if (strlen(words[i].name) == len && memcmp(words[i].name, start, len) == 0) {
                code[n++] = words[i].op;
                found = 1;
                break;
            }
        }
        if (!found)
            return -1;
    }
    code[n++] = OP_HALT;
    return n;
}

int main(int argc, char **argv)
{
    const char *src = argc > 1 ? argv[1] : "6 7 * . 100 3 % . 1 2 swap - .";
    long code[512];
    int n = compile(src, code, 512);
    if (n < 0) {
        fprintf(stderr, "compile error\n");
        return 2;
    }
    struct vm m;
    memset(&m, 0, sizeof m);
    int rc = run(&m, code, n);
    fprintf(stderr, "%ld steps\n", m.steps);
    return rc ? 1 : 0;
}
